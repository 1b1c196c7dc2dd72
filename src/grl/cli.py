"""Command-line front end: validate structure files, classify them, run
theorem cross-checks, build constructions, and drive corpus suites.

Exit codes: 0 = valid input / all checks agree (or skipped), 1 = invalid
input, 2 = a cross-check disagreed (an implementation-bug signal).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import __version__, jsonio
from .constructions import (
    bn_index,
    check_good_grading_prop,
    matrix_units_semigroup,
)
from .corpus import (
    Corpus,
    CorpusManifest,
    default_manifest,
    generate_corpus,
    write_corpus,
)
from .errors import ValidationError
from .gradings import (
    GradedRing,
    base_components_vnr,
    check_corollaries,
    check_eps_characterizations,
    check_lemma_technical,
    check_prop_switch,
    check_theorem_groupoid,
    check_theorem_inverse_semigroup,
    check_theorem_main,
    is_epsilon_strong,
    is_graded_vnr,
    is_nearly_epsilon_strong,
    is_strong,
    is_symmetric,
)
from .groupoids import FiniteGroupoid, to_inverse_semigroup
from .rings import (
    FiniteRing,
    check_tominaga,
    check_vnr_characterization,
    is_s_unital,
    is_von_neumann_regular,
    ring_idempotents,
    s_unitality,
    unity,
)
from .semigroups import (
    FiniteSemigroup,
    classify_semigroup,
    inverses,
    isomorphic_under,
    weak_inverses,
)


def _print_json(data: dict, pretty: bool) -> None:
    # a report may hold numpy arrays and scalars: a table decoded where none goes
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    print(json.dumps(data, sort_keys=True, default=lambda obj: obj.tolist(), **layout))


def _cap(obj, limit: int):
    """Trim witness collections to at most ``limit`` entries."""
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        out = {str(k): _cap(v, limit) for k, v in items[:limit]}
        if len(items) > limit:
            out["_truncated"] = len(items) - limit
        return out
    if isinstance(obj, (list, tuple)):
        out = [_cap(v, limit) for v in obj[:limit]]
        if len(obj) > limit:
            out.append({"_truncated": len(obj) - limit})
        return out
    return obj


# ---------------------------------------------------------------------------
# classify


def _classify_semigroup(S: FiniteSemigroup, limit: int) -> dict:
    cls = classify_semigroup(S)
    return {
        "kind": "semigroup",
        "order": S.order,
        "verdicts": {"regular": cls.is_regular, "inverse": cls.is_inverse,
                     "group": cls.is_group},
        "idempotents": list(cls.idempotents),
        "witnesses": {
            "weak_inverse_sets": _cap({s: list(q) for s, q in
                                       enumerate(cls.weak_inverse_sets)}, limit),
            "inverse_sets": _cap({s: list(v) for s, v in
                                  enumerate(cls.inverse_sets)}, limit),
        },
    }


def _classify_ring(T: FiniteRing, limit: int) -> dict:
    su = s_unitality(T)
    reg = is_von_neumann_regular(T)
    u = unity(T)
    return {
        "kind": "ring",
        "order": T.order,
        "verdicts": {"unital": u is not None, "left_s_unital": su.is_left,
                     "right_s_unital": su.is_right, "s_unital": su.holds,
                     "von_neumann_regular": reg.holds},
        "unity": u,
        "idempotents": list(ring_idempotents(T)),
        "vnr_failing": reg.failing,
        "witnesses": {
            "quasi_inverses": _cap({r: y for r, y in enumerate(reg.quasi_inverses)
                                    if y is not None}, limit),
        },
    }


def _classify_groupoid(G: FiniteGroupoid, limit: int) -> dict:
    S, embedding = to_inverse_semigroup(G)
    cls = classify_semigroup(S)
    return {
        "kind": "groupoid",
        "objects": G.n_objects,
        "morphisms": G.n_morphisms,
        "identities": list(G.identity),
        "verdicts": {"adjoined_zero_semigroup_inverse": cls.is_inverse},
        "witnesses": {"embedding": _cap(list(embedding), limit)},
    }


def _classify_graded(R: GradedRing, limit: int) -> dict:
    sym = is_symmetric(R)
    strong = is_strong(R)
    eps = is_epsilon_strong(R)
    near = is_nearly_epsilon_strong(R)
    gvnr = is_graded_vnr(R)
    bvnr = base_components_vnr(R)
    witnesses = {}
    if eps.witness is not None and eps.witness.uniform:
        witnesses["epsilon"] = _cap({f"{s},{t}": list(v)
                                     for (s, t), v in eps.witness.uniform.items()}, limit)
    if gvnr.witness is not None and gvnr.witness.assignments:
        witnesses["quasi_inverses"] = _cap(
            {f"{s},{r},{t}": y
             for (s, r, t), y in gvnr.witness.assignments.items()}, limit)
    return {
        "kind": "graded_ring",
        "base_kind": R.base_kind,
        "graders": R.n_graders,
        "component_orders": [R.component(s).order for s in R.graders()],
        "verdicts": {
            "symmetric": sym.holds,
            "strong": strong.holds,
            "epsilon_strong": eps.holds,
            "nearly_epsilon_strong": near.holds,
            "graded_vnr": gvnr.holds,
            "base_components_vnr": bvnr.holds,
        },
        "vacuous": {"symmetric": sym.vacuous, "graded_vnr": gvnr.vacuous},
        "failing": {
            "symmetric": list(sym.failing) if sym.failing else None,
            "strong": list(strong.failing) if strong.failing else None,
            "graded_vnr": list(gvnr.failing) if gvnr.failing else None,
        },
        "witnesses": witnesses,
    }


def classify_structure(kind: str, structure, limit: int) -> dict:
    if kind == "semigroup":
        return _classify_semigroup(structure, limit)
    if kind == "ring":
        return _classify_ring(structure, limit)
    if kind == "groupoid":
        return _classify_groupoid(structure, limit)
    return _classify_graded(structure, limit)


# ---------------------------------------------------------------------------
# theorem checks: one table drives `grl check` and the corpus suites


def _check_q_vs_v(S: FiniteSemigroup) -> dict:
    q_all = all(len(weak_inverses(S, s)) > 0 for s in S.elements())
    v_all = all(len(inverses(S, s)) > 0 for s in S.elements())
    return {"check": "q-vs-v", "applicable": True,
            "weak_inverses_all_nonempty": q_all,
            "inverses_all_nonempty": v_all, "agree": q_all == v_all}


def _check_semigroup_ring(graded: GradedRing, A: FiniteRing) -> dict:
    """Graded regularity of the canonical grading must match regularity of
    the coefficient ring; for s-unital coefficients the grading must be strong."""
    if not graded.base_idempotents():
        return {"check": "semigroup-ring", "applicable": False,
                "reason": "base has no idempotents; the verdict would be vacuous"}
    gvnr = is_graded_vnr(graded).holds
    avnr = is_von_neumann_regular(A).holds
    out = {"check": "semigroup-ring", "applicable": True,
           "graded_vnr": gvnr, "coefficient_vnr": avnr, "agree": gvnr == avnr}
    if is_s_unital(A):
        strong = is_strong(graded).holds
        out["strong"] = strong
        out["agree"] = out["agree"] and strong
    return out


def _check_groupoid_entry(G: FiniteGroupoid, name: str) -> dict:
    """The adjoined-zero semigroup must be inverse; for a pair groupoid it
    must also match the matrix-unit semigroup under (i, j) -> e_{i+1, j+1}."""
    S, embedding = to_inverse_semigroup(G)
    cls = classify_semigroup(S)
    report = {"check": "adjoined-zero-semigroup", "applicable": True,
              "inverse": cls.is_inverse, "agree": cls.is_inverse}
    m = re.fullmatch(r"pair(\d+)", name)
    if m:
        n = int(m.group(1))
        B = matrix_units_semigroup(n)
        perm = [0] * S.order
        for g in G.morphisms():
            i, j = G.cod[g], G.dom[g]  # morphism (i, j): j -> i
            perm[embedding[g]] = bn_index(n, i + 1, j + 1)
        iso = isomorphic_under(S, B, perm)
        report["pair_matches_matrix_units"] = iso
        report["agree"] = report["agree"] and iso
    return report


def _check_matrix_bn(graded: GradedRing) -> dict:
    eps = is_epsilon_strong(graded).holds
    main = check_theorem_main(graded)
    return {"check": "matrix-bn", "applicable": True, "epsilon_strong": eps,
            "theorem_main_agree": main["agree"], "graded_vnr": main["graded_vnr"],
            "agree": eps and main["agree"]}


class _Check(NamedTuple):
    """One input a named check runs on.  ``takes`` is a structure kind
    (semigroup, ring, groupoid, graded_ring) or a construction (semigroup_ring,
    matrix_bn, good_grading); ``base`` is the base kind of the graded rings
    the check's corpus suite keeps, None for all; ``run(subject, meta, opts)``
    makes the report, with the options the check reads.  A construction's
    subject is its graded ring; what else the construction made (its
    coefficient ring, or a good grading under ``"grading"``) is in ``meta``."""

    takes: str
    base: Optional[str]
    run: Callable[..., dict]


# Every check, in the order `corpus-run --suite all` runs them.  `grl check
# NAME` and `corpus-run --suite NAME` run the same rows.  Each ``run`` looks
# its check function up in this module when called, so a wrapper set on the
# module's name is the function called.
CHECKS: dict[str, tuple[_Check, ...]] = {
    "q-vs-v": (_Check("semigroup", None, lambda S, meta, opts: _check_q_vs_v(S)),),
    "vnr-char": (_Check("ring", None, lambda T, meta, opts: check_vnr_characterization(
        T, max_generators=opts.fg_ideal_bound)),),
    "tominaga": (_Check("ring", None, lambda T, meta, opts: check_tominaga(T)),),
    "main": (_Check("graded_ring", "semigroup",
                    lambda R, meta, opts: check_theorem_main(R)),),
    "inverse": (_Check("graded_ring", "semigroup",
                       lambda R, meta, opts: check_theorem_inverse_semigroup(R)),),
    "lemma-technical": (_Check("graded_ring", None, lambda R, meta, opts:
                               check_lemma_technical(R, max_witnesses=opts.max_witnesses)),),
    "eps-chars": (_Check("graded_ring", None,
                         lambda R, meta, opts: check_eps_characterizations(R)),),
    "corollaries": (_Check("graded_ring", "semigroup",
                           lambda R, meta, opts: check_corollaries(R)),),
    "semigroup-ring": (_Check("semigroup_ring", None,
                              lambda R, meta, opts: _check_semigroup_ring(R, meta["A"])),),
    "good-grading": (_Check("good_grading", None, lambda R, meta, opts:
                            check_good_grading_prop(meta["grading"])),),
    "matrix-bn": (_Check("matrix_bn", None, lambda R, meta, opts: _check_matrix_bn(R)),),
    "switch": (_Check("graded_ring", "groupoid",
                      lambda R, meta, opts: check_prop_switch(R)),),
    "groupoid": (_Check("groupoid", None, lambda G, meta, opts: _check_groupoid_entry(
                     G, meta.get("name", ""))),
                 _Check("graded_ring", "groupoid",
                        lambda R, meta, opts: check_theorem_groupoid(R))),
}
THEOREMS = tuple(CHECKS)

_NEEDS = {"semigroup": "a semigroup file", "ring": "a ring file",
          "groupoid": "a groupoid file", "graded_ring": "a graded ring"}


def _subject(takes: str, kind: str, structure, meta: dict):
    """What a row that takes ``takes`` runs on, or None if it does not take
    this input."""
    return structure if takes in (kind, meta.get("construction")) else None


def run_theorem_check(theorem: str, loaded, opts) -> dict:
    """Run a named check on its first row that takes the loaded input.

    ``loaded`` is (kind, object, meta) where meta carries construction data
    when the input was a construction spec.  An input that no row takes is
    skipped, with the reason the check's last row gives.
    """
    kind, structure, meta = loaded
    for check in CHECKS[theorem]:
        subject = _subject(check.takes, kind, structure, meta)
        if subject is not None:
            return check.run(subject, meta, opts)
    takes = CHECKS[theorem][-1].takes
    needs = _NEEDS.get(takes, f"a {takes} construction spec")
    return {"check": theorem, "applicable": False, "reason": f"needs {needs}"}


def _suite_tasks(corpus: Corpus, suite: str, opts):
    """(entry id, zero-argument task) for each corpus entry that a row of the
    check takes, where the row's base kind keeps it."""
    entries = {"semigroup": corpus.semigroups, "ring": corpus.rings,
               "groupoid": corpus.groupoids}
    for check in CHECKS[suite]:
        for e in entries.get(check.takes, corpus.graded):
            subject = _subject(check.takes, e.kind, e.structure, e.meta)
            if subject is None or check.base and subject.base_kind != check.base:
                continue
            yield e.id, partial(check.run, subject, e.meta, opts)


def _entry_status(report: dict) -> str:
    if not report.get("applicable", True):
        return "skipped"
    return "agree" if report.get("agree", False) else "disagree"


def run_suite(corpus: Corpus, suite: str, opts) -> dict:
    """Run each check of ``suite`` on every corpus entry it takes, one task
    after another on the calling thread.  Under ``timings``, ``suites``
    gives the seconds each suite's tasks took, summed over its tasks."""
    if suite == "none":
        names: tuple[str, ...] = ()
    elif suite == "all":
        names = THEOREMS
    else:
        names = (suite,)
    seconds = dict.fromkeys(names, 0.0)
    entries = []
    for name in names:
        for entry_id, task in _suite_tasks(corpus, name, opts):
            started = time.perf_counter()
            report = task()
            seconds[name] += time.perf_counter() - started
            entries.append({"suite": name, "id": entry_id,
                            "status": _entry_status(report), "report": report})
    return {
        "tool_version": __version__,
        "suite": suite,
        "seed": corpus.manifest.seed,
        "counts": corpus.counts,
        "n_entries": len(entries),
        "n_agree": sum(1 for e in entries if e["status"] == "agree"),
        "n_disagree": sum(1 for e in entries if e["status"] == "disagree"),
        "n_skipped": sum(1 for e in entries if e["status"] == "skipped"),
        "entries": entries,
        "timings": {"suites": {name: round(took, 6) for name, took in seconds.items()}},
    }


# ---------------------------------------------------------------------------
# commands


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


_LOAD_ERRORS = (ValidationError, OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError)


def _input_error(err: Exception, args, **extra) -> int:
    """Report input that failed to load or validate as JSON; exit code 1."""
    # str() of a KeyError is the repr of its argument, quotes and all
    message = str(err.args[0]) if isinstance(err, KeyError) and err.args else str(err)
    report = {**extra, "error": type(err).__name__, "message": message}
    if isinstance(err, ValidationError):
        report.update(error=err.code, context=list(err.context))
    _print_json(report, args.pretty)
    return 1


def cmd_validate(args) -> int:
    try:
        kind, _, _ = jsonio.load(args.path)
    except _LOAD_ERRORS as err:
        return _input_error(err, args, valid=False)
    _print_json({"valid": True, "kind": kind}, args.pretty)
    return 0


def cmd_classify(args) -> int:
    started = time.perf_counter()
    try:
        kind, structure, _ = jsonio.load(args.path)
    except _LOAD_ERRORS as err:
        return _input_error(err, args)
    report = classify_structure(kind, structure, args.max_witnesses)
    report["subject"] = args.path
    report["tool_version"] = __version__
    report["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    _print_json(report, args.pretty)
    return 0


def cmd_check(args) -> int:
    started = time.perf_counter()
    try:
        loaded = jsonio.load(args.path)
    except _LOAD_ERRORS as err:
        return _input_error(err, args)
    report = run_theorem_check(args.theorem, loaded, args)
    report["subject"] = args.path
    report["tool_version"] = __version__
    report["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    _print_json(report, args.pretty)
    if not report.get("applicable", True):
        return 0
    return 0 if report.get("agree", False) else 2


def cmd_construct(args) -> int:
    try:
        structure, _ = jsonio.construction_from_json(jsonio.read_object(args.spec))
    except _LOAD_ERRORS as err:
        return _input_error(err, args)
    out = Path(args.out)
    try:
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(jsonio.dumps_canonical(jsonio.structure_to_json(structure)))
    except OSError as err:
        return _input_error(err, args)
    _print_json({"written": str(out)}, args.pretty)
    return 0


def cmd_corpus_run(args) -> int:
    started = time.perf_counter()
    manifest = default_manifest()
    try:
        if args.manifest:
            manifest = CorpusManifest.from_json(jsonio.read_json(args.manifest, tables=False))
        if args.seed is not None:
            manifest = CorpusManifest.from_json({**manifest.to_json(), "seed": args.seed})
    except _LOAD_ERRORS as err:
        return _input_error(err, args)
    corpus = generate_corpus(manifest)
    if args.dump:
        try:
            write_corpus(corpus, args.dump)
        except OSError as err:
            return _input_error(err, args)
    summary = run_suite(corpus, args.suite, args)
    timings = summary.pop("timings")  # summary.json stays the same from run to run
    if args.out:
        out = Path(args.out)
        try:
            (out / "reports").mkdir(parents=True, exist_ok=True)
            for entry in summary["entries"]:
                name = f"{entry['suite']}__{entry['id']}".replace(":", "_").replace("+", "-")
                _write_atomic(out / "reports" / f"{name}.json", jsonio.dumps_canonical(entry))
            _write_atomic(out / "summary.json", jsonio.dumps_canonical(summary))
        except OSError as err:
            return _input_error(err, args)
    summary["timings"] = {"seconds": round(time.perf_counter() - started, 6), **timings,
                          **corpus.work}
    _print_json(summary, args.pretty)
    return 2 if summary["n_disagree"] else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="grl",
        description="Classify finite semigroups, groupoids, rings and graded "
                    "rings, and cross-check the structure theorems they satisfy.")
    parser.add_argument("--version", action="version", version=f"grl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        p.add_argument("--max-witnesses", type=int, default=100, metavar="N",
                       help="cap inlined witness collections (default 100)")
        p.add_argument("--fg-ideal-bound", type=int, default=2, metavar="K",
                       help="generator bound for finitely generated ideal checks (default 2)")

    p = sub.add_parser("validate", help="validate a structure file")
    p.add_argument("path")
    add_common(p)
    p.set_defaults(reads=())

    p = sub.add_parser("classify", help="compute every applicable verdict")
    p.add_argument("path")
    add_common(p)
    p.set_defaults(reads=("max_witnesses",))

    p = sub.add_parser("check", help="run one theorem cross-check")
    p.add_argument("theorem", choices=THEOREMS)
    p.add_argument("path")
    add_common(p)
    p.set_defaults(reads=("max_witnesses", "fg_ideal_bound"))

    p = sub.add_parser("construct", help="build a structure from a spec file")
    p.add_argument("spec")
    p.add_argument("out")
    add_common(p)
    p.set_defaults(reads=())

    p = sub.add_parser("corpus-run", help="run a suite across the corpus")
    p.add_argument("--suite", default="all",
                   choices=sorted(THEOREMS) + ["all", "none"])
    p.add_argument("--manifest", help="manifest JSON (defaults to the built-in corpus)")
    p.add_argument("--out", help="directory for summary.json and per-entry reports")
    p.add_argument("--dump", help="directory to materialize the corpus structure files")
    p.add_argument("--seed", type=int, help="override the manifest seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="changes nothing: suites run on one thread (default 1)")
    add_common(p)
    p.set_defaults(reads=("seed", "jobs", "max_witnesses", "fg_ideal_bound"))
    return parser


# Smallest accepted value of the bounded options: a generator bound below 1
# would make scan (iii) of vnr-char vacuously true, a negative witness cap
# would empty every witness list.  `--jobs` changes nothing, but until it
# is deleted a command line below 1 is still refused.
_MINIMUM = {"max_witnesses": 0, "fg_ideal_bound": 1, "jobs": 1}


def _bad_option(args) -> Optional[ValueError]:
    """The first option the command reads that is below its minimum; None if
    all are good.  ``reads`` names the options the command uses besides
    ``pretty``; a value given to any other option is never looked at."""
    for name in args.reads:
        low, value = _MINIMUM.get(name), getattr(args, name)
        if low is not None and value < low:
            flag = name.replace("_", "-")
            return ValueError(f"--{flag} must be at least {low}, got {value}")
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    bad = _bad_option(args)
    # the command function is looked up at each call, not kept in the cached
    # parser, so a wrapper set on this module's cmd_* name is the one run
    run = globals()["cmd_" + args.command.replace("-", "_")]
    code = run(args) if bad is None else _input_error(bad, args)
    if argv is None:
        sys.exit(code)
    return code
