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
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Optional

from . import __version__, catalog, jsonio
from .constructions import (
    GoodGrading,
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
from .errors import OutOfRangeError, ValidationError
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


def _env_int(name: str, default: Optional[int]):
    """An option's default from the environment.  A value that is not an
    integer becomes a ValueError default, which ``main`` reports only when the
    chosen command reads that option and the command line does not set it."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return ValueError(f"environment variable {name} must be an integer, got {raw!r}")


def _env_flag(name: str):
    """A switch's default from the environment: 1/true/yes/on or 0/false/no/off
    in any case.  Any other value becomes a ValueError default, as in ``_env_int``."""
    raw = os.environ.get(name, "")
    if raw.lower() in ("", "0", "false", "no", "off", "1", "true", "yes", "on"):
        return raw.lower() in ("1", "true", "yes", "on")
    return ValueError(f"environment variable {name} must be one of "
                      f"1/true/yes/on or 0/false/no/off, got {raw!r}")


def _print_json(data: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))


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
# theorem checks on single inputs


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


THEOREMS = ("main", "inverse", "groupoid", "switch", "vnr-char", "tominaga",
            "lemma-technical", "good-grading", "semigroup-ring", "q-vs-v")


def run_theorem_check(theorem: str, loaded, opts) -> dict:
    """Dispatch one named cross-check against a loaded structure.

    ``loaded`` is (kind, object, meta) where meta carries construction data
    when the input was a construction spec.
    """
    kind, structure, meta = loaded

    def not_applicable(reason):
        return {"check": theorem, "applicable": False, "reason": reason}

    if theorem == "q-vs-v":
        if kind != "semigroup":
            return not_applicable("needs a semigroup file")
        return _check_q_vs_v(structure)
    if theorem == "vnr-char":
        if kind != "ring":
            return not_applicable("needs a ring file")
        return check_vnr_characterization(structure, max_generators=opts.fg_ideal_bound)
    if theorem == "tominaga":
        if kind != "ring":
            return not_applicable("needs a ring file")
        return check_tominaga(structure)
    if theorem == "good-grading":
        if not isinstance(structure, GoodGrading):
            return not_applicable("needs a good_grading construction spec")
        return check_good_grading_prop(structure)
    if theorem == "semigroup-ring":
        if meta.get("construction") != "semigroup_ring":
            return not_applicable("needs a semigroup_ring construction spec")
        return _check_semigroup_ring(structure, meta["A"])

    graded = structure.graded if isinstance(structure, GoodGrading) else structure
    if not isinstance(graded, GradedRing):
        return not_applicable("needs a graded ring")
    if theorem == "main":
        return check_theorem_main(graded)
    if theorem == "inverse":
        return check_theorem_inverse_semigroup(graded)
    if theorem == "groupoid":
        return check_theorem_groupoid(graded)
    if theorem == "switch":
        return check_prop_switch(graded)
    if theorem == "lemma-technical":
        return check_lemma_technical(graded, max_witnesses=opts.max_witnesses)
    return not_applicable(f"unknown theorem {theorem!r}")


# ---------------------------------------------------------------------------
# corpus suites: each yields (entry id, zero-argument task)


def _suite_tasks(corpus: Corpus, suite: str, opts):
    fg = opts.fg_ideal_bound
    mw = opts.max_witnesses
    if suite == "q-vs-v":
        for e in corpus.semigroups:
            yield e.id, partial(_check_q_vs_v, e.structure)
    elif suite == "vnr-char":
        for e in corpus.rings:
            yield e.id, partial(check_vnr_characterization, e.structure,
                                max_generators=fg)
    elif suite == "tominaga":
        for e in corpus.rings:
            yield e.id, partial(check_tominaga, e.structure)
    elif suite == "main":
        for e in corpus.graded:
            if e.graded.base_kind == "semigroup":
                yield e.id, partial(check_theorem_main, e.graded)
    elif suite == "inverse":
        for e in corpus.graded:
            if e.graded.base_kind == "semigroup":
                yield e.id, partial(check_theorem_inverse_semigroup, e.graded)
    elif suite == "lemma-technical":
        for e in corpus.graded:
            yield e.id, partial(check_lemma_technical, e.graded, max_witnesses=mw)
    elif suite == "eps-chars":
        for e in corpus.graded:
            yield e.id, partial(check_eps_characterizations, e.graded)
    elif suite == "corollaries":
        for e in corpus.graded:
            if e.graded.base_kind == "semigroup":
                yield e.id, partial(check_corollaries, e.graded)
    elif suite == "semigroup-ring":
        for e in corpus.graded:
            if e.meta.get("construction") == "semigroup_ring":
                yield e.id, partial(_check_semigroup_ring, e.graded,
                                    catalog.named_ring(e.meta["A"]))
    elif suite == "good-grading":
        for e in corpus.graded:
            if e.meta.get("construction") == "good_grading":
                yield e.id, partial(check_good_grading_prop, e.structure)
    elif suite == "matrix-bn":
        for e in corpus.graded:
            if e.meta.get("construction") == "matrix_bn":
                yield e.id, partial(_check_matrix_bn, e.graded)
    elif suite == "switch":
        for e in corpus.graded:
            if e.graded.base_kind == "groupoid":
                yield e.id, partial(check_prop_switch, e.graded)
    elif suite == "groupoid":
        for e in corpus.groupoids:
            yield e.id, partial(_check_groupoid_entry, e.structure,
                                e.meta.get("name", ""))
        for e in corpus.graded:
            if e.graded.base_kind == "groupoid":
                yield e.id, partial(check_theorem_groupoid, e.graded)
    else:
        raise KeyError(f"unknown suite {suite!r}")


def _check_matrix_bn(graded: GradedRing) -> dict:
    eps = is_epsilon_strong(graded).holds
    main = check_theorem_main(graded)
    return {"check": "matrix-bn", "applicable": True, "epsilon_strong": eps,
            "theorem_main_agree": main["agree"], "graded_vnr": main["graded_vnr"],
            "agree": eps and main["agree"]}


SUITE_NAMES = ("q-vs-v", "vnr-char", "tominaga", "main", "inverse",
               "lemma-technical", "eps-chars", "corollaries", "semigroup-ring",
               "good-grading", "matrix-bn", "switch", "groupoid")


def _entry_status(report: dict) -> str:
    if not report.get("applicable", True):
        return "skipped"
    return "agree" if report.get("agree", False) else "disagree"


def run_suite(corpus: Corpus, suite: str, opts, jobs: int = 1) -> dict:
    if suite == "none":
        names: tuple[str, ...] = ()
    elif suite == "all":
        names = SUITE_NAMES
    else:
        names = (suite,)
    tasks = [(name, entry_id, task)
             for name in names
             for (entry_id, task) in _suite_tasks(corpus, name, opts)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(lambda t: t[2](), tasks))
    else:
        reports = [task() for (_, _, task) in tasks]
    entries = [{"suite": name, "id": entry_id, "status": _entry_status(report),
                "report": report}
               for (name, entry_id, _), report in zip(tasks, reports)]
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
    }


# ---------------------------------------------------------------------------
# commands


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _read_object(path) -> dict:
    """The JSON object a structure or spec file holds."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise OutOfRangeError(f"expected a JSON object, got {type(data).__name__}")
    return data


def _load_any(path: str):
    """Load a structure or construction-spec file; returns (kind, object, meta)."""
    p = Path(path)
    data = _read_object(p)
    if "construct" in data and "kind" not in data:  # ring constructor files carry a kind
        structure, meta = jsonio.construction_from_json(data)
        return "graded_ring", structure, meta
    kind, structure = jsonio.structure_from_json(data, base_dir=p.parent)
    return kind, structure, {}


_LOAD_ERRORS = (ValidationError, OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError)


def _input_error(err: Exception, args, **extra) -> int:
    """Report input that failed to load or validate as JSON; exit code 1."""
    report = {**extra, "error": type(err).__name__, "message": str(err)}
    if isinstance(err, ValidationError):
        report.update(error=err.code, context=list(err.context))
    _print_json(report, args.pretty)
    return 1


def cmd_validate(args) -> int:
    try:
        kind, _, _ = _load_any(args.path)
    except _LOAD_ERRORS as err:
        return _input_error(err, args, valid=False)
    _print_json({"valid": True, "kind": kind}, args.pretty)
    return 0


def cmd_classify(args) -> int:
    started = time.perf_counter()
    try:
        kind, structure, _ = _load_any(args.path)
    except _LOAD_ERRORS as err:
        return _input_error(err, args)
    if isinstance(structure, GoodGrading):
        structure = structure.graded
    report = classify_structure(kind, structure, args.max_witnesses)
    report["subject"] = args.path
    report["tool_version"] = __version__
    report["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    _print_json(report, args.pretty)
    return 0


def cmd_check(args) -> int:
    started = time.perf_counter()
    try:
        loaded = _load_any(args.path)
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
        spec = _read_object(args.spec)
        structure, _ = jsonio.construction_from_json(spec)
    except _LOAD_ERRORS as err:
        return _input_error(err, args)
    if isinstance(structure, GoodGrading):
        structure = structure.graded
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(jsonio.dumps_canonical(jsonio.structure_to_json(structure)))
    _print_json({"written": str(out)}, args.pretty)
    return 0


def cmd_corpus_run(args) -> int:
    started = time.perf_counter()
    manifest = default_manifest()
    try:
        if args.manifest:
            manifest = CorpusManifest.from_json(json.loads(Path(args.manifest).read_text()))
        if args.seed is not None:
            manifest = CorpusManifest.from_json({**manifest.to_json(), "seed": args.seed})
    except _LOAD_ERRORS as err:
        return _input_error(err, args)
    corpus = generate_corpus(manifest)
    if args.dump:
        write_corpus(corpus, args.dump)
    summary = run_suite(corpus, args.suite, args, jobs=args.jobs)
    if args.out:
        out = Path(args.out)
        (out / "reports").mkdir(parents=True, exist_ok=True)
        for entry in summary["entries"]:
            name = f"{entry['suite']}__{entry['id']}".replace(":", "_").replace("+", "-")
            _write_atomic(out / "reports" / f"{name}.json", jsonio.dumps_canonical(entry))
        _write_atomic(out / "summary.json", jsonio.dumps_canonical(summary))
    summary["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    _print_json(summary, args.pretty)
    return 2 if summary["n_disagree"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grl",
        description="Classify finite semigroups, groupoids, rings and graded "
                    "rings, and cross-check the structure theorems they satisfy.")
    parser.add_argument("--version", action="version", version=f"grl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--pretty", action="store_true",
                       default=_env_flag("GRL_PRETTY"),
                       help="indent JSON output")
        p.add_argument("--max-witnesses", type=int, metavar="N",
                       default=_env_int("GRL_MAX_WITNESSES", 100),
                       help="cap inlined witness collections (default 100)")
        p.add_argument("--fg-ideal-bound", type=int, metavar="K",
                       default=_env_int("GRL_FG_IDEAL_BOUND", 2),
                       help="generator bound for finitely generated ideal checks")

    p = sub.add_parser("validate", help="validate a structure file")
    p.add_argument("path")
    add_common(p)
    p.set_defaults(func=cmd_validate, reads=())

    p = sub.add_parser("classify", help="compute every applicable verdict")
    p.add_argument("path")
    add_common(p)
    p.set_defaults(func=cmd_classify, reads=("max_witnesses",))

    p = sub.add_parser("check", help="run one theorem cross-check")
    p.add_argument("theorem", choices=THEOREMS)
    p.add_argument("path")
    add_common(p)
    p.set_defaults(func=cmd_check, reads=("max_witnesses", "fg_ideal_bound"))

    p = sub.add_parser("construct", help="build a structure from a spec file")
    p.add_argument("spec")
    p.add_argument("out")
    add_common(p)
    p.set_defaults(func=cmd_construct, reads=())

    p = sub.add_parser("corpus-run", help="run a suite across the corpus")
    p.add_argument("--suite", default="all",
                   choices=sorted(SUITE_NAMES) + ["all", "none"])
    p.add_argument("--manifest", help="manifest JSON (defaults to the built-in corpus)")
    p.add_argument("--out", help="directory for summary.json and per-entry reports")
    p.add_argument("--dump", help="directory to materialize the corpus structure files")
    p.add_argument("--seed", type=int, default=_env_int("GRL_SEED", None),
                   help="override the manifest seed")
    p.add_argument("--jobs", type=int, default=_env_int("GRL_JOBS", 1),
                   help="worker threads for corpus suites")
    add_common(p)
    p.set_defaults(func=cmd_corpus_run,
                   reads=("seed", "jobs", "max_witnesses", "fg_ideal_bound"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # ``reads`` names the options the command uses besides ``pretty``; a bad
    # GRL_* value behind any other option is never looked at
    bad_env = next((v for v in map(partial(getattr, args), ("pretty", *args.reads))
                    if isinstance(v, ValueError)), None)
    if bad_env is not None:
        args.pretty = args.pretty is True  # a bad GRL_PRETTY reports compactly
    code = args.func(args) if bad_env is None else _input_error(bad_env, args)
    if argv is None:
        sys.exit(code)
    return code
