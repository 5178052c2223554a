"""Seeded mutation test of the CLI's input contract.

Each case takes a valid problem file, replaces one or two of its JSON
nodes by a hostile value, and runs it through `poscones run`.  The run
must either answer (exit 0 or 1, nothing on stderr) or refuse the file
(exit 2 with exactly one stderr line); no exception may escape main.
"""

import json
import random
from pathlib import Path

from poscones import zoo_algebra, zoo_names
from poscones.cli import main
from poscones.serde import algebra_to_json, matd_to_json

DATA = Path(__file__).resolve().parent / "data"
HOSTILE = ("1/0", "0/0", "", 1.5, True, None, [], "P9", 10**30)
# Before parse_elem refused zero denominators, cases 6 and 58 of this seed
# escaped main with ZeroDivisionError: a quad d of "1/0", a quat b of "0/0".
SEED, CASES = 2, 400


def _bases() -> list:
    bases = [json.loads((DATA / f"{stem}.json").read_text())
             for stem in ("every-command", "every-command-untwisted")]
    for name in sorted(zoo_names()):
        alg = zoo_algebra(name)
        bases.append({
            "schema": "1",
            "algebra": algebra_to_json(alg),
            "elements": {"one": matd_to_json(alg.identity())},
            "tasks": [{"command": "classify"}, {"command": "cones"},
                      {"command": "hsigma", "elements": ["one"]}],
        })
    return bases


def _paths(node, path=()):
    """Every path to a node below the root, as tuples of keys and indices."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(rng: random.Random, base) -> tuple[dict, list]:
    data = json.loads(json.dumps(base))
    changes = []
    for _ in range(rng.choice((1, 2))):
        path = rng.choice(list(_paths(data)))
        value = rng.choice(HOSTILE)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        changes.append((path, value))
    return data, changes


def test_mutated_problem_files_keep_the_exit_contract(capsys):
    rng = random.Random(SEED)
    bases = _bases()
    broken = []
    for case in range(CASES):
        data, changes = _mutate(rng, rng.choice(bases))
        try:
            code = main(["run", json.dumps(data)])
        except Exception as exc:  # noqa: BLE001 - any escape is a finding
            broken.append((case, changes, f"{type(exc).__name__}: {exc}"))
            capsys.readouterr()
            continue
        _, err = capsys.readouterr()
        ok = (code in (0, 1) and err == "") or (
            code == 2 and len(err.splitlines()) == 1 and err.startswith("error: "))
        if not ok:
            broken.append((case, changes, f"exit {code}, stderr {err!r}"))
    assert broken == []
