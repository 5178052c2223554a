"""The three workloads: their inputs, the questions asked, and the checks.

A workload builds its fixed algebras once, then the questions of round r
from random.Random(f"{seed}:{r}"), so the same seed gives the same inputs
and no round repeats an earlier round's matrices.  Every round asks the
same kinds of question in the same numbers.  A question's ask() calls the
library through its modules at call time, so an installed tracer sees the
calls; check(answer) raises known.Mismatch when the answer is wrong, and
corrupt(answer), when present, returns a wrong answer that check must
reject.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from itertools import combinations

import known
from known import expect


class Question:
    __slots__ = ("kind", "ask", "check", "corrupt")

    def __init__(self, kind, ask, check, corrupt=None) -> None:
        self.kind = kind
        self.ask = ask
        self.check = check
        self.corrupt = corrupt


class Fault(Exception):
    """The program failed an operation: a crash, or a wrong exit code on bad input."""


def _rng(seed: int, tag) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def _subsets(items):
    return [c for n in range(1, len(items) + 1) for c in combinations(items, n)]


# -- diag-kernel -----------------------------------------------------------------


def kernel_algebras(pc):
    """Every division-algebra kind over Q, Q(sqrt 2) and Q(sqrt 5)."""
    Desc, Field = pc.algebra.DivisionAlgebraDesc, pc.field.FieldDesc
    q, r2, r5 = Field(), Field(2), Field(5)
    return [
        Desc(q, "split"),
        Desc(r2, "split"),
        Desc(r5, "split"),
        Desc(q, "quad", (q.elem(1),)),
        Desc(r2, "quad", (r2.sqrt_gen(),)),  # nil at P1
        Desc(r5, "quad", (r5.elem(3),)),
        Desc(q, "quat", (q.elem(1), q.elem(1))),
        Desc(r2, "quat", (r2.one(), r2.elem(1, 1))),  # nil at P1
        Desc(r5, "quat", (r5.elem(2), r5.sqrt_gen())),  # nil at P1
    ]


# A quaternion matrix of side n has as many base-field coordinates as a
# split matrix of side 2n, and at sides 7 and 8 over Q(sqrt 2) and Q(sqrt 5)
# a single diagonalization takes 0.2-0.4 s: a handful of such matrices would
# hold the 90th percentile of a whole round.  Quaternion sides stop at 6.
SIDES = range(2, 9)
QUAT_SIDES = range(2, 7)


class DiagKernel:
    """diagonalize, both pivot strategies, sides 2..8 (quaternion 2..6),
    a quarter singular.

    Each matrix is diagonalized once, with the strategy that alternates
    over the (algebra, side) grid and from round to round, so that two
    rounds ask both strategies on every grid cell.  The two strategies of
    one matrix take nearly the same time; asking one of them doubles the
    distinct matrices a run sees, which steadies the latency tail.
    """

    name = "diag-kernel"

    def __init__(self, pc, seed: int) -> None:
        self.pc, self.seed = pc, seed
        self.divs = kernel_algebras(pc)

    def questions(self, r: int) -> list[Question]:
        pc, rng = self.pc, _rng(self.seed, r)
        out = []
        for ai, div in enumerate(self.divs):
            for n in QUAT_SIDES if div.kind == "quat" else SIDES:
                zeros = rng.randint(1, n - 1) if (n + ai) % 4 == 0 else 0
                kinds = ["zero"] * zeros + ["any"] * (n - zeros)
                rng.shuffle(kinds)
                vals = known.values(pc, rng, div.base, kinds)
                h = known.hermitian(pc, rng, div, vals)
                strategy = ("first", "last")[(ai + n + r) % 2]
                out.append(Question(
                    "diagonalize",
                    lambda h=h, s=strategy: pc.forms.diagonalize(h, s),
                    lambda res, div=div, vals=vals: known.check_diagonal(
                        div, vals, res.entries),
                    self._corrupt,
                ))
        return out

    def _corrupt(self, res):
        flipped = (-res.entries[0],) + tuple(res.entries[1:])
        return self.pc.forms.DiagonalizationResult(res.witness, flipped)


# -- cone-queries ------------------------------------------------------------------

ELEMENT_KINDS = ("pos", "p0", "mixed", "zero")


def element_values(pc, rng, alg, kind):
    """ell values for an element of the given kind (see ELEMENT_KINDS)."""
    ell, field = alg.ell, alg.field
    if kind == "mixed":
        kinds = (["pos", "neg"] + ["any"] * ell)[:ell] if ell > 1 else ["any"]
    elif kind == "zero":
        kinds = ["zero"] + ["pos"] * (ell - 1)
    else:
        kinds = [kind] * ell
    return known.values(pc, rng, field, kinds)


class QueryAlgebras:
    """The ten zoo algebras, built once, and per round random twists of the
    six with ell > 1 and of two algebras over Q(sqrt 5), where both
    orderings are non-nil."""

    def __init__(self, pc) -> None:
        self.pc = pc
        self.zoo = [(name, pc.zoo.zoo_algebra(name)) for name in pc.zoo.zoo_names()]
        Desc, Alg = pc.algebra.DivisionAlgebraDesc, pc.algebra.AlgebraWithInvolution
        r5 = pc.field.FieldDesc(5)
        self.bases = [alg for _, alg in self.zoo if alg.ell > 1] + [
            Alg(ell, div, pc.algebra.MatD.identity(div, ell))
            for div, ell in ((Desc(r5, "split"), 2), (Desc(r5, "quad", (r5.elem(3),)), 1))
        ]

    def for_round(self, rng):
        """(zoo name or None, algebra) pairs: the zoo, then fresh twists."""
        return self.zoo + [(None, known.twisted_algebra(self.pc, rng, b)) for b in self.bases]


class AlgebraInputs:
    """Forms and elements over one algebra, with what they were built from."""

    def __init__(self, pc, rng, alg, zoo_name) -> None:
        self.alg = alg
        div, ell = alg.div, alg.ell
        self.live = known.live_orderings(div)
        self.nil = tuple(p for p in known.orderings(alg.field) if p not in self.live)
        # pre_sylvester needs phi = 1; asked on the zoo algebras that have it,
        # never on a twist, so that every round asks the same questions
        self.decomposable = self.live if zoo_name and alg.has_standard_involution else ()
        self.forms = []  # (form, values, reduced gram)
        for rank in ((1, 2) if ell <= 2 else (1, 1)):
            vals = known.values(pc, rng, alg.field, ["any"] * (rank * ell))
            m = known.hermitian(pc, rng, div, vals)
            form = pc.forms.HermitianForm(alg, rank, known.twist_blocks(pc, alg, m))
            self.forms.append((form, vals, m))
        self.elements = []  # (element, values)
        for kind in ELEMENT_KINDS:
            vals = element_values(pc, rng, alg, kind)
            self.elements.append((alg.phi * known.hermitian(pc, rng, div, vals), vals))
        vals = known.values(pc, rng, alg.field, ["any"] * ell)
        self.twist = alg.phi * known.hermitian(pc, rng, div, vals)

    def in_cone(self, vals, p, eps) -> bool:
        return all(known.is_zero(v) or known.sign(v, p) == eps for v in vals)

    def maximal(self, vals, ps) -> bool:
        return all(self.in_cone(vals, p, 1) for p in ps)

    def cones_with(self, vals_list) -> set:
        return {
            (p, eps) for p in self.live for eps in (1, -1)
            if all(self.in_cone(v, p, eps) for v in vals_list)
        }


def _move_one_sign(dec):
    """A wrong decomposition: one coefficient moved between pos and neg."""
    if dec.neg:
        pos, neg = dec.pos + dec.neg[:1], dec.neg[1:]
    else:
        pos, neg = dec.pos[1:], dec.neg + dec.pos[:1]
    return type(dec)(dec.ordering, dec.n_p, dec.t, dec.betas, pos, neg)


def check_sylvester(alg, vals, p, n_p, r, s, sign) -> None:
    """pre_sylvester at p: n_P = ell, r - s = ell * signature, r + s = ell * rank
    and the normalized signature; sign() is read only once r and s passed."""
    ell, want = alg.ell, known.signature(alg.div, vals, p)
    expect(n_p == ell, f"n_P {n_p}, expected {ell}")
    expect(r - s == ell * want, "r - s differs from ell * signature")
    expect(r + s == ell * len(vals), "r + s differs from ell * rank")
    expect(sign() == want, "normalized signature differs")


class ConeQueries:
    """The paper's questions on small forms and elements over many algebras."""

    name = "cone-queries"

    def __init__(self, pc, seed: int) -> None:
        self.pc, self.seed = pc, seed
        self.algebras = QueryAlgebras(pc)

    def questions(self, r: int) -> list[Question]:
        pc, rng = self.pc, _rng(self.seed, r)
        sig, cones = pc.signature, pc.cones
        out = []
        for zoo_name, alg in self.algebras.for_round(rng):
            x = AlgebraInputs(pc, rng, alg, zoo_name)
            div = alg.div
            for form, vals, _ in x.forms:
                for p in known.orderings(alg.field):
                    want = known.signature(div, vals, p)
                    out.append(Question(
                        "sign_eta",
                        lambda h=form, p=p: sig.sign_eta(h, p),
                        lambda got, want=want: expect(got == want, f"sign {got}, expected {want}"),
                        lambda got: got + 1,
                    ))
                for p in x.decomposable:
                    out.append(Question(
                        "pre_sylvester",
                        lambda h=form, p=p: sig.pre_sylvester(h, p),
                        lambda d, vals=vals, p=p, alg=alg: check_sylvester(
                            alg, vals, p, d.n_p, d.r, d.s, lambda: d.sign_value(1)),
                        _move_one_sign,
                    ))
            for u, vals in x.elements:
                for p in x.live:
                    for eps in (1, -1):
                        want = x.in_cone(vals, p, eps)
                        out.append(Question(
                            "member",
                            lambda u=u, p=p, eps=eps, alg=alg: cones.member(
                                u, cones.PositiveCone(alg, p, eps)),
                            lambda got, want=want: expect(got is want, f"member {got}, expected {want}"),
                            lambda got: not got,
                        ))
                want_cones = x.cones_with([vals])
                out.append(Question(
                    "harrison_sigma",
                    lambda u=u, alg=alg: cones.harrison_sigma(alg, [u]),
                    lambda got, want=want_cones: expect(
                        {(k.ordering, k.eps) for k in got} == want and len(got) == len(want),
                        "Harrison set differs"),
                    lambda got, alg=alg: got[1:] if got else cones.enumerate_cones(alg)[:1],
                ))
                for subset in _subsets(x.live):
                    want = x.maximal(vals, subset)
                    out.append(Question(
                        "is_maximal_on",
                        lambda u=u, s=subset, alg=alg: cones.is_maximal_on(alg, u, s),
                        lambda got, want=want: expect(got is want, f"maximal {got}, expected {want}"),
                        lambda got: not got,
                    ))
            for p in x.live:
                out.append(Question(
                    "positive_involution_at",
                    lambda alg=alg, p=p: cones.positive_involution_at(alg, p),
                    lambda got, alg=alg, p=p: (
                        known.check_positive_twist(alg, got[0], p),
                        expect(got[1].phi == got[0] * alg.phi, "twisted algebra is not b * phi"),
                    ),
                    lambda got, alg=alg: (known.non_positive_twist(pc, alg), got[1]),
                ))
            for p in x.nil:
                out.append(Question(
                    "is_positive_involution",
                    lambda alg=alg, b=x.twist, p=p: sig.is_positive_involution(alg, b, p),
                    lambda got: expect(got is False, "positive involution at a nil ordering"),
                    lambda got: not got,
                ))
        return out


# -- problem-files -------------------------------------------------------------------

MALFORMED = (
    {"schema": "1", "zoo": "split-q-1", "forms": [1], "tasks": []},
    {
        "schema": "1",
        "zoo": "split-q-1",
        "elements": {"e": [[["1"]]]},
        "tasks": [{"command": "maximal-on", "element": "e", "orderings": 5}],
    },
)


# The library's parse_elem misreads its own canonical form for a pure sqrt
# term whose coefficient has two or more digits ("23*sqrt(2)"), so problem
# files spell such coordinates "0+23*sqrt(2)", which it reads correctly.
_PURE_SQRT = re.compile(r'"(-?)(\d{2,}(?:/\d+)?\*sqrt\()')


def _readable(text: str) -> str:
    return _PURE_SQRT.sub(lambda m: f'"0{m.group(1) or "+"}{m.group(2)}', text)


class ProblemFile:
    """One generated problem file and the checks of each of its task results."""

    def __init__(self, pc, rng, alg, zoo_name, n_forms=2, kinds=ELEMENT_KINDS):
        self.pc = pc
        x = AlgebraInputs(pc, rng, alg, zoo_name)
        div, ell = alg.div, alg.ell
        ser = pc.serde
        data = {"schema": "1"}
        if zoo_name is not None:
            data["zoo"] = zoo_name
        else:
            data["algebra"] = ser.algebra_to_json(alg)
        forms = {f"f{i}": f for i, f in enumerate(x.forms[:n_forms])}
        elements = {f"e_{k}": x.elements[ELEMENT_KINDS.index(k)] for k in kinds}
        # weak representation: u = c^2 * a is a value of <a> at x = c * 1
        wvals = known.values(pc, rng, alg.field, ["pos"] * ell)
        a = alg.phi * known.hermitian(pc, rng, div, wvals)
        c = rng.choice((2, 3, -2))
        u = a.scale_field(c * c)
        data["forms"] = {n: ser.form_to_json(f) for n, (f, _, _) in forms.items()}
        data["forms"]["w"] = ser.form_to_json(pc.forms.rank_one(alg, a))
        data["elements"] = {n: ser.matd_to_json(e) for n, (e, _) in elements.items()}
        data["elements"]["e_w"] = ser.matd_to_json(u)

        tasks, checks = [], []

        def task(spec, check, outcome=True):
            tasks.append(spec)
            checks.append(check)
            self.all_true = self.all_true and outcome

        self.all_true = True
        task({"command": "classify"}, lambda got: self._check_classify(alg, got))
        task({"command": "cones"}, lambda got: expect(
            sorted((k["ordering"], k["eps"]) for k in got)
            == sorted((f"P{p}", e) for p in x.live for e in (1, -1)), "cone list differs"))
        for n, (form, vals, m) in forms.items():
            task({"command": "sign", "form": n}, lambda got, vals=vals: expect(
                got == {f"P{p}": known.signature(div, vals, p) for p in known.orderings(alg.field)},
                "signatures differ"))
            task({"command": "diag", "form": n}, lambda got, vals=vals, m=m: self._check_diag(
                div, vals, m, got))
            for p in x.decomposable:
                task({"command": "presylvester", "form": n, "ordering": f"P{p}"},
                     lambda got, vals=vals, p=p: (
                         expect(got["ordering"] == f"P{p}" and got["t"] == 1,
                                "decomposition header differs"),
                         check_sylvester(alg, vals, p, got["n_P"], got["r"], got["s"],
                                         lambda: got["sign"])))
        last, (_, _, last_m) = list(forms.items())[-1]
        task({"command": "collapse", "form": last},
             lambda got: self._check_collapse(div, last_m, got))
        for n, (_, vals) in elements.items():
            for p in x.live:
                for eps in (1, -1):
                    ok = x.in_cone(vals, p, eps)
                    task({"command": "member", "element": n, "ordering": f"P{p}", "eps": eps},
                         lambda got, ok=ok: expect(got == {"member": ok}, "membership differs"), ok)
            ok = x.maximal(vals, x.live)
            task({"command": "maximal-on", "element": n},
                 lambda got, ok=ok: expect(got == {"maximal": ok}, "maximality differs"), ok)
        first, (_, vals) = next(iter(elements.items()))
        for subset in _subsets(x.live):
            ok = x.maximal(vals, subset)
            task({"command": "maximal-on", "element": first,
                  "orderings": [f"P{p}" for p in subset]},
                 lambda got, ok=ok: expect(got == {"maximal": ok}, "maximality differs"), ok)
        want = x.cones_with([v for _, v in elements.values()])
        task({"command": "hsigma", "elements": list(elements)},
             lambda got, want=want: expect(
                 sorted((k["ordering"], k["eps"]) for k in got)
                 == sorted((f"P{p}", e) for p, e in want), "Harrison set differs"))
        for p in x.live:
            task({"command": "posinv", "ordering": f"P{p}"},
                 lambda got, p=p: self._check_posinv(alg, p, got))
        task({"command": "weakrep", "form": "w", "element": "e_w"},
             lambda got: self._check_weakrep(alg, a, u, got))
        data["tasks"] = tasks
        self.checks = checks
        self.text = _readable(json.dumps(data, sort_keys=True))

    # -- checks of single task results

    def _check_classify(self, alg, got):
        want = []
        for p in known.orderings(alg.field):
            cls, n_p, nil = known.local_class(alg.div, alg.ell, p)
            want.append({"ordering": f"P{p}", "class": cls, "n_P": n_p, "nil": nil})
        expect(got == want, "classification differs")

    def _check_diag(self, div, vals, m, got):
        pc = self.pc
        entries = [known.parse_value(div.base, e) for e in got["entries"]]
        known.check_diagonal(div, vals, entries)
        expect(got["rank"] == sum(1 for v in vals if not known.is_zero(v)), "rank differs")
        known.check_congruence(pc, m, known.decode_matrix(pc, div, got["witness"]), entries)

    def _check_collapse(self, div, m, got):
        pc = self.pc
        expect(got["algebra"]["ell"] == 1 and got["form"]["rank"] == m.rows,
               "collapsed shape differs")
        grid = got["form"]["gram"]
        entries = [[known.decode_matrix(pc, div, b).entries[0][0] for b in row] for row in grid]
        expect(pc.algebra.MatD(div, entries) == m, "collapsed Gram differs from the construction")

    def _check_posinv(self, alg, p, got):
        pc = self.pc
        b = known.decode_matrix(pc, alg.div, got["b"])
        known.check_positive_twist(alg, b, p)
        phi = known.decode_matrix(pc, alg.div, got["twisted_algebra"]["phi"])
        expect(phi == b * alg.phi, "twisted algebra is not b * phi")

    def _check_weakrep(self, alg, a, u, got):
        expect(got["status"] == "yes", "weak representation not found")
        pc = self.pc
        x = known.decode_matrix(pc, alg.div, got["witness"])
        ell, copies = alg.ell, got["copies"]
        expect(x.rows == copies * ell, "witness has the wrong shape")
        total = pc.algebra.MatD.zeros(alg.div, ell, ell)
        for i in range(copies):
            xi = x.submatrix(i * ell, 0, ell, ell)
            total = total + alg.phi * xi.theta_t() * alg.phi_inv * a * xi
        expect(total == u, "witness value differs from the element")

    def check(self, outcome) -> None:
        code, out, err = outcome
        expect(code == (0 if self.all_true else 1), f"exit code {code}")
        expect(err == "", "unexpected error output")
        results = json.loads(out)["results"]
        expect(len(results) == len(self.checks), "result count differs")
        for res, check in zip(results, self.checks):
            check(res["result"])


def run_cli(pc, path: str):
    """cli.main on a problem file in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pc.cli.main(["run", path, "--json"])
    return code, out.getvalue(), err.getvalue()


def run_malformed(pc, path: str):
    """The correct outcome is exit 2 with a one-line error; anything else is a fault."""
    try:
        code, out, err = run_cli(pc, path)
    except Exception as exc:
        raise Fault(f"{type(exc).__name__}: {exc}") from exc
    if code != 2 or out or len(err.splitlines()) != 1:
        raise Fault(f"exit {code} with {len(err.splitlines())} error lines")
    return code, out, err


def file_corruption(outcome):
    """Change one coordinate of the first diag witness in the output."""
    code, out, err = outcome
    data = json.loads(out)
    for res in data["results"]:
        if res["command"] == "diag":
            w = res["result"]["witness"]
            w[0][0][0] = "7/3" if w[0][0][0] != "7/3" else "5/3"
            break
    return code, json.dumps(data), err


# Two files per algebra, a full one and a smaller one, so that file
# latencies spread evenly rather than in a few clusters.
FILE_SIZES = ((2, ELEMENT_KINDS), (1, ("pos", "mixed")))


class ProblemFiles:
    """cli run on generated problem files, plus two malformed files."""

    name = "problem-files"

    def __init__(self, pc, seed: int, workdir: str) -> None:
        self.pc, self.seed, self.workdir = pc, seed, workdir
        self.algebras = QueryAlgebras(pc)
        self.bytes_in = 0
        self.malformed = []
        for i, data in enumerate(MALFORMED):
            path = os.path.join(workdir, f"malformed-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            self.malformed.append(path)

    def questions(self, r: int) -> list[Question]:
        pc, rng = self.pc, _rng(self.seed, r)
        out = []
        self.bytes_in = 0
        for i, (zoo_name, alg) in enumerate(self.algebras.for_round(rng)):
            for size, (n_forms, kinds) in enumerate(FILE_SIZES):
                pf = ProblemFile(pc, rng, alg, zoo_name, n_forms, kinds)
                path = os.path.join(self.workdir, f"problem-{i}-{size}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(pf.text)
                self.bytes_in += len(pf.text)
                out.append(Question("run", lambda path=path: run_cli(pc, path), pf.check,
                                    file_corruption))
        for path in self.malformed:
            self.bytes_in += os.path.getsize(path)
            out.append(Question("malformed", lambda path=path: run_malformed(pc, path),
                                lambda got: None))
        return out


def small_problem(pc, workdir: str):
    """The fixed small problem file used for cold starts: zoo quat-rt2-1,
    one form and one element, every task command."""
    alg = pc.zoo.zoo_algebra("quat-rt2-1")
    pf = ProblemFile(pc, random.Random("cold-start"), alg, "quat-rt2-1",
                     n_forms=1, kinds=("pos",))
    path = os.path.join(workdir, "small.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pf.text)
    return pf, path


WORKLOADS = {w.name: w for w in (DiagKernel, ConeQueries, ProblemFiles)}
