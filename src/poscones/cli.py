"""Command-line front end.

Inputs are JSON descriptors (inline or in files); outputs are JSON
records (--json) or aligned text (default).  All computed values are
exact rational strings; the one float is selftest's wall time.  Exit
codes: 0 for success / a true boolean result, 1 for a false boolean
result, 2 for errors of any kind.

Every task command has one body in the command table.  `poscones run`
executes the tasks of a problem file; each other task subcommand turns
its flags into a one-task problem file (its form named "f", its elements
"e" or "e0", "e1", ...) and runs it through the same loader and loop.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, NamedTuple, Sequence

from .acceptance import run_all
from .algebra import AlgebraWithInvolution
from .cones import (
    PositiveCone,
    enumerate_cones,
    harrison_sigma,
    is_maximal_on,
    member,
    positive_involution_at,
)
from .errors import ParseError, PosconesError, TaskError
from .forms import weakly_represents
from .morita import full_reduction, reduced_diagonal
from .orders import classify_all, orderings_of, x_tilde
from .serde import (
    algebra_from_json,
    algebra_to_json,
    field_from_json,
    form_from_json,
    form_to_json,
    matd_from_json,
    matd_to_json,
    ordering_info_to_json,
    ordering_name,
    parse_ordering,
)
from .signature import pre_sylvester, sign_eta
from .zoo import zoo_algebra, zoo_names

__all__ = ["main"]


def _load_blob(raw: str) -> Any:
    """Inline JSON when the argument looks like JSON, else a file path."""
    text = raw.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {raw!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


# selftest sample counts grow linearly with --scale, so an unbounded scale
# (1e300, say) would start a run that never ends
MAX_SCALE = 10.0

_EPS = {"1": 1, "+1": 1, "+": 1, "-1": -1, "-": -1}


def _parse_eps(raw: Any) -> int:
    """A cone sign, given as 1 or -1 or as one of "+1 -1 + - 1"."""
    text = str(raw).strip() if type(raw) in (int, str) else None
    if text not in _EPS:
        raise ParseError(f"eps must be +1 or -1, got {raw!r}")
    return _EPS[text]


def _parse_orderings(raw: Any) -> tuple[int, ...]:
    """Orderings given as a list or as one comma-separated string."""
    if isinstance(raw, str):
        raw = raw.replace(",", " ").split()
    if not isinstance(raw, list):
        raise ParseError(
            f"orderings must be a list or a comma-separated string, got {raw!r}"
        )
    return tuple(parse_ordering(p) for p in raw)


# -- the command table ---------------------------------------------------------
#
# A body takes the algebra and one task: the task's JSON object with its
# form and element names replaced by the objects they name.  It returns
# (verdict, JSON payload, text lines); a false verdict makes the exit code 1.


class Command(NamedTuple):
    body: Callable[[AlgebraWithInvolution, dict], tuple[bool, Any, list[str]]]
    help: str
    keys: tuple[str, ...]  # the task keys it reads, each also a flag


COMMANDS: dict[str, Command] = {}

# argparse settings of the flag for each task key
_FLAGS: dict[str, dict[str, Any]] = {
    "form": {"help": "form JSON or file"},
    "element": {"help": "matrix JSON or file"},
    "elements": {
        "flag": "--element", "metavar": "ELEMENT", "action": "append",
        "help": "matrix JSON or file (repeatable)",
    },
    "ordering": {"help": "ordering, e.g. P0"},
    "orderings": {"help": "comma-separated orderings (default: all non-nil)"},
    "eps": {"help": "cone sign, +1 (default) or -1"},
}


def _command(name: str, help: str, keys: str = ""):
    """Enter the decorated body in the command table under name."""

    def register(body):
        COMMANDS[name] = Command(body, help, tuple(keys.split()))
        return body

    return register


@_command("classify", "classify every ordering of the field")
def _classify(alg, t):
    records = [ordering_info_to_json(i) for i in classify_all(alg)]
    lines = [
        f"{r['ordering']}  class={r['class']}  n_P={r['n_P']}  nil={str(r['nil']).lower()}"
        for r in records
    ]
    return True, records, lines


@_command("sign", "signature of a form at orderings (default: all)", "form ordering")
def _sign(alg, t):
    ps = [parse_ordering(t["ordering"])] if "ordering" in t else orderings_of(alg)
    table = {ordering_name(p): sign_eta(t["form"], p) for p in ps}
    return True, table, [f"{k}  {v}" for k, v in sorted(table.items())]


@_command("diag", "diagonalize the reduction of a form", "form")
def _diag(alg, t):
    res = reduced_diagonal(t["form"])
    payload = {
        "entries": [str(e) for e in res.entries],
        "rank": res.rank,
        "witness": matd_to_json(res.witness),
    }
    lines = [
        "entries  <" + ", ".join(payload["entries"]) + ">",
        f"rank     {res.rank}",
    ]
    return True, payload, lines


@_command("collapse", "reduce a form to the division algebra", "form")
def _collapse(alg, t):
    red = full_reduction(t["form"])
    payload = {"algebra": algebra_to_json(red.alg), "form": form_to_json(red)}
    return True, payload, [f"reduced to rank {red.rank} over {red.alg}"]


def _cone_listing(cones, empty: str):
    records = [{"ordering": ordering_name(k.ordering), "eps": k.eps} for k in cones]
    lines = [f"{r['ordering']}  eps={r['eps']:+d}" for r in records] or [empty]
    return True, records, lines


@_command("cones", "enumerate the positive cones")
def _cones(alg, t):
    return _cone_listing(enumerate_cones(alg), "no cones (every ordering is nil)")


@_command("member", "test cone membership of an element", "element ordering eps")
def _member(alg, t):
    p, eps = parse_ordering(t.get("ordering")), _parse_eps(t.get("eps", 1))
    ok = member(t["element"], PositiveCone(alg, p, eps))
    return ok, {"member": ok}, [str(ok).lower()]


@_command("posinv", "construct a positive involution at an ordering", "ordering")
def _posinv(alg, t):
    p = parse_ordering(t.get("ordering"))
    b, tau_alg = positive_involution_at(alg, p)
    payload = {
        "b": matd_to_json(b),
        "twisted_algebra": algebra_to_json(tau_alg),
        "ordering": ordering_name(p),
    }
    return True, payload, [f"b = {b}", f"twisted algebra: {tau_alg}"]


@_command("hsigma", "cones containing all the given symmetric elements", "elements")
def _hsigma(alg, t):
    return _cone_listing(
        harrison_sigma(alg, t.get("elements", [])), "no cones contain all the elements"
    )


@_command(
    "presylvester", "scalar decomposition of a form at an ordering", "form ordering"
)
def _presylvester(alg, t):
    p = parse_ordering(t.get("ordering"))
    dec = pre_sylvester(t["form"], p)
    payload = {
        "ordering": ordering_name(dec.ordering),
        "n_P": dec.n_p,
        "t": dec.t,
        "betas": [str(b) for b in dec.betas],
        "pos": [str(e) for e in dec.pos],
        "neg": [str(e) for e in dec.neg],
        "r": dec.r,
        "s": dec.s,
        "sign": dec.sign_value(1),
    }
    lines = [
        f"r={dec.r} s={dec.s} n_P={dec.n_p} t={dec.t}",
        f"normalized signature {dec.sign_value(1)}",
    ]
    return True, payload, lines


@_command(
    "maximal-on", "test maximality of an element on orderings", "element orderings"
)
def _maximal_on(alg, t):
    ys = _parse_orderings(t["orderings"]) if "orderings" in t else x_tilde(alg)
    ok = is_maximal_on(alg, t["element"], ys)
    return ok, {"maximal": ok}, [str(ok).lower()]


@_command(
    "weakrep", "build a weak representation of an element by a form", "form element"
)
def _weakrep(alg, t):
    res = weakly_represents(t["form"], t["element"])
    found = res.status == "yes"
    payload: dict[str, Any] = {"status": res.status}
    lines = [f"status {res.status}"]
    if found:
        payload["copies"] = res.copies
        payload["witness"] = matd_to_json(res.witness)
        lines.append(f"copies {res.copies}")
    return found, payload, lines


# -- problem files -------------------------------------------------------------


def _named(data: dict, key: str) -> dict:
    named = data.get(key, {})
    if not isinstance(named, dict):
        raise ParseError(f"{key} must be an object mapping names to descriptors")
    return named


def _load_problem(data: Any):
    """Validate a problem file; returns (algebra, forms, elements, tasks)."""
    if not isinstance(data, dict):
        raise ParseError("problem file must be a JSON object")
    if str(data.get("schema")) != "1":
        raise ParseError("problem file must declare schema \"1\"")
    if ("zoo" in data) == ("algebra" in data):
        raise ParseError("give exactly one of a zoo name and an algebra descriptor")
    field = field_from_json(data["field"]) if "field" in data else None
    if "zoo" in data:
        try:
            alg = zoo_algebra(str(data["zoo"]))
        except KeyError as exc:
            raise ParseError(str(exc.args[0])) from exc
    else:
        alg = algebra_from_json(data["algebra"], field)
    forms = {
        name: form_from_json(alg, spec) for name, spec in _named(data, "forms").items()
    }
    elements = {
        name: matd_from_json(alg.div, spec)
        for name, spec in _named(data, "elements").items()
    }
    tasks = data.get("tasks")
    if not isinstance(tasks, list):
        raise ParseError("problem file needs a list of tasks")
    return alg, forms, elements, tasks


def _ref(name: Any, kind: str, named: dict) -> Any:
    if name is None:
        raise TaskError(f"task needs a {kind}")
    if not isinstance(name, str):
        raise ParseError(f"{kind} reference must be a name, got {name!r}")
    if name not in named:
        raise TaskError(f"task references unknown {kind} {name!r}")
    return named[name]


def _run_problem(data: Any) -> list:
    """Execute every task; returns one (command, verdict, payload, lines) each."""
    alg, forms, elements, tasks = _load_problem(data)
    out = []
    for i, spec in enumerate(tasks):
        if not isinstance(spec, dict):
            raise TaskError(f"task {i} is not an object")
        name = spec.get("command")
        cmd = COMMANDS.get(name) if isinstance(name, str) else None
        if cmd is None:
            raise TaskError(f"unknown task command {name!r}")
        unknown = sorted(set(spec) - {"command", *cmd.keys})
        if unknown:
            raise ParseError(f"task {i} ({name}) has unknown key {unknown[0]!r}")
        try:
            t = dict(spec)
            if "form" in cmd.keys:
                t["form"] = _ref(spec.get("form"), "form", forms)
            if "element" in cmd.keys:
                t["element"] = _ref(spec.get("element"), "element", elements)
            if "elements" in cmd.keys:
                names = spec.get("elements", [])
                if not isinstance(names, list):
                    raise ParseError(f"elements must be a list of names, got {names!r}")
                t["elements"] = [_ref(n, "element", elements) for n in names]
            out.append((name, *cmd.body(alg, t)))
        except TaskError:
            raise
        except PosconesError as exc:
            raise TaskError(f"task {i} ({name}): {exc}") from exc
    return out


def _one_task_problem(args: argparse.Namespace) -> dict:
    """The problem file a task subcommand's flags stand for."""
    problem: dict[str, Any] = {"schema": "1"}
    if args.zoo is not None:
        problem["zoo"] = args.zoo
    if args.algebra is not None:
        problem["algebra"] = _load_blob(args.algebra)
    task: dict[str, Any] = {"command": args.command}
    for key in COMMANDS[args.command].keys:
        value = getattr(args, key)
        if value is None:
            continue
        if key in ("form", "element"):
            problem[key + "s"] = {key[0]: _load_blob(value)}
            value = key[0]
        elif key == "elements":
            problem["elements"] = {f"e{i}": _load_blob(v) for i, v in enumerate(value)}
            value = list(problem["elements"])
        task[key] = value
    problem["tasks"] = [task]
    return problem


# -- subcommands ---------------------------------------------------------------
#
# Each returns (exit_code, JSON payload, text lines).


def _cmd_task(args):
    [(_, ok, payload, lines)] = _run_problem(_one_task_problem(args))
    return (0 if ok else 1), payload, lines


def _cmd_run(args):
    results = _run_problem(_load_blob(args.problem))
    records = [
        {"task": i, "command": name, "result": payload}
        for i, (name, _, payload, _) in enumerate(results)
    ]
    code = 0 if all(ok for _, ok, _, _ in results) else 1
    lines = [json.dumps(r, sort_keys=True) for r in records]
    return code, {"schema": "1", "results": records}, lines


def _cmd_zoo(args):
    algs = {name: zoo_algebra(name) for name in zoo_names()}
    records = [{"name": n, "algebra": algebra_to_json(a)} for n, a in algs.items()]
    return 0, records, [f"{n}  {a}" for n, a in algs.items()]


def _cmd_selftest(args):
    if not 0 < args.scale <= MAX_SCALE:  # also false for nan
        raise ParseError(
            f"--scale must be positive and at most {MAX_SCALE:g}, got {args.scale:g}"
        )
    results = run_all(args.seed, args.scale)
    records = [
        {
            "criterion": r.number,
            "name": r.name,
            "passed": r.passed,
            "detail": r.detail,
            "seconds": round(seconds, 3),
        }
        for r, seconds in results
    ]
    lines = [f"zoo: {', '.join(zoo_names())}"]
    lines += [
        f"criterion {r.number:2d}  {'PASS' if r.passed else 'FAIL'}  {r.name}"
        f"  ({seconds:.1f}s)"
        for r, seconds in results
    ]
    code = 0 if all(r.passed for r, _ in results) else 1
    return code, {"zoo": list(zoo_names()), "criteria": records}, lines


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line and exit 2; subparsers share the class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poscones",
        description=(
            "Exact computations with hermitian forms and positive cones "
            "on algebras with involution over Q and real quadratic fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, fn) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.set_defaults(fn=fn)
        return p

    for name, cmd in COMMANDS.items():
        p = add(name, cmd.help, _cmd_task)
        p.add_argument("--zoo", help="name of a built-in algebra")
        p.add_argument("--algebra", help="algebra descriptor (inline JSON or file)")
        for key in cmd.keys:
            settings = dict(_FLAGS[key])
            p.add_argument(settings.pop("flag", f"--{key}"), dest=key, **settings)

    p = add("run", "execute a problem file of tasks", _cmd_run)
    p.add_argument("problem", help="problem file (JSON) or inline JSON")

    p = add("selftest", "run the acceptance suite on the zoo", _cmd_selftest)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument(
        "--scale", type=float, default=1.0,
        help=f"sample-count multiplier (1.0 = full suite, at most {MAX_SCALE:g})",
    )

    add("zoo", "list the built-in algebras", _cmd_zoo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, data, lines = args.fn(args)
    except (PosconesError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.json:
        lines = [json.dumps(data, sort_keys=True, separators=(",", ":"))]
    for line in lines:
        sys.stdout.write(line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
