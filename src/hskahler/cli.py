"""Command-line surface.

Subcommands map one-to-one onto the library entry points:

    analyze FILE         full consistency + classification pass
    hs FILE              closed-completion feasibility at the documented metric
    kahlerize FILE       the constructive completion, with its certificate
    verify-claims FILE   identity tables C1..C7 / D1..D8 and the claims
    generate ...         emit a model-family document
    batch DIR            analyze every document in a directory

Reports go to stdout as aligned text followed by a JSON body (text is
suppressed with --json-only; the JSON moves to a file with -o).  Exit
codes: 0 all requested checks pass, 1 a mathematical check failed,
2 input or usage error.  Given identical input, config and seed the
JSON output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import (
    AnalysisReport,
    jsonable,
    run_analysis,
    run_hs,
    run_kahlerize,
    run_verify_claims,
)
from .config import Config, DEFAULT_CONFIG, TOOL_VERSION
from .documents import AlgebraDocument, load
from .errors import (
    FormatError,
    GeometryError,
    ParameterError,
    ValidationError,
)
from .kahler import generate_family

_CONFIG_FLAGS = ("tol_alg", "tol_feas", "tol_cert", "seed")


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """An argparse type: a finite tolerance above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
    return value


@functools.cache  # parsing leaves the parser unchanged, so every call can share it
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol-alg", type=_tolerance, default=None, metavar="T",
                        help="algebraic-identity tolerance")
    shared.add_argument("--tol-feas", type=_tolerance, default=None, metavar="T",
                        help="feasibility tolerance for the linear system")
    shared.add_argument("--tol-cert", type=_tolerance, default=None, metavar="T",
                        help="certificate closure tolerance")
    shared.add_argument("--seed", type=_at_least(0), default=None, metavar="K",
                        help="seed for anything randomized")
    shared.add_argument("--config", metavar="FILE", default=None,
                        help="JSON file with tolerance/seed overrides (flags win)")
    shared.add_argument("--json-only", action="store_true",
                        help="suppress the text report")

    parser = argparse.ArgumentParser(
        prog="hskahler",
        description="invariant Hermitian geometry on Lie algebra documents",
    )
    parser.add_argument("--version", action="version", version=f"hskahler {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[shared], help=help_)
        p.add_argument("file", help="algebra document (path, or a bundled catalog name)")
        p.add_argument("-o", "--output", metavar="FILE", default=None,
                       help="write the JSON report here instead of stdout")
        return p

    with_file("analyze", "full consistency and classification pass")
    hs = with_file("hs", "closed-completion feasibility at the documented metric")
    hs.add_argument("--search", action="store_true",
                    help="when infeasible, search over invariant metrics")
    hs.add_argument("--restarts", type=_at_least(1), default=6, help="search restarts")
    hs.add_argument("--budget", type=_at_least(1), default=500,
                    help="objective evaluations per restart")
    with_file("kahlerize", "construct and certify the closed positive completion")
    with_file("verify-claims", "identity tables and structural claims")

    gen = sub.add_parser("generate", parents=[shared], help="emit a model-family document")
    gen.add_argument("--r", type=int, required=True, help="core dimension")
    gen.add_argument("--n", type=int, required=True, help="complex dimension")
    gen.add_argument("--lambda", dest="lam", metavar="FILE", default=None,
                     help="JSON (n-r) x r array of eigenvalue data ([re, im] entries)")
    gen.add_argument("--p", metavar="FILE", default=None,
                     help="JSON length-r array of coupling constants")
    gen.add_argument("-o", "--output", metavar="FILE", required=True,
                     help="where to write the document")

    bat = sub.add_parser("batch", parents=[shared], help="analyze every document in a directory")
    bat.add_argument("directory", help="directory of *.json documents")
    bat.add_argument("-o", "--output", metavar="FILE", default=None,
                     help="write the JSON report here instead of stdout")
    bat.add_argument("--jobs", type=_at_least(1), default=4, help="concurrent analyses")
    return parser


def _load_config(args: argparse.Namespace) -> Config:
    cfg = DEFAULT_CONFIG
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except OSError as e:
            raise FormatError(f"cannot read {args.config}: {e.strerror or e}") from None
        except json.JSONDecodeError as e:
            raise FormatError(
                f"invalid JSON in {args.config} at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
        if not isinstance(data, dict):
            raise ValidationError("config file must hold a JSON object")
        known = set(cfg.as_dict())
        bad = sorted(set(data) - known)
        if bad:
            raise ValidationError(f"unknown config keys: {', '.join(bad)}")
        for k, v in data.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValidationError(f"config key {k} must be a number")
            if k == "seed" and not (isinstance(v, int) and v >= 0):
                raise ValidationError(f"config key seed must be a non-negative integer, got {v}")
            if k != "seed" and not (math.isfinite(v) and v > 0):
                raise ValidationError(f"config key {k} must be finite and above 0, got {v}")
        cfg = replace(cfg, **data)
    overrides = {k: getattr(args, k) for k in _CONFIG_FLAGS if getattr(args, k, None) is not None}
    return replace(cfg, **overrides) if overrides else cfg


def _resolve_document(spec: str) -> Path:
    """A path as given, or a bundled catalog name like ``torus``."""
    path = Path(spec)
    if path.exists():
        return path
    base = resources.files("hskahler").joinpath("catalog")
    for candidate in (spec, spec + ".json"):
        hit = base.joinpath(candidate)
        if hit.is_file():
            return Path(str(hit))
    return path  # let load() report the miss


def _want_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _colorize(text: str) -> str:
    out = []
    for line in text.splitlines():
        if line.startswith("  PASS "):
            line = "  \x1b[32mPASS\x1b[0m " + line[7:]
        elif line.startswith("  FAIL "):
            line = "  \x1b[31mFAIL\x1b[0m " + line[7:]
        out.append(line)
    return "\n".join(out) + "\n"


def _emit(report_dict: dict, text: str, args: argparse.Namespace) -> None:
    if not args.json_only:
        sys.stdout.write(_colorize(text) if _want_color() else text)
    body = json.dumps(report_dict, indent=2) + "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(body)
    else:
        sys.stdout.write(body)


def _read_complex_array(path: str, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """A JSON array of numbers or [re, im] pairs (possibly nested one deep).

    A row of two numbers reads either as one [re, im] pair or as two
    real entries; the reading with the expected ``shape`` wins (a flat
    array counts as a single column), and the pair reading otherwise.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise FormatError(
            f"invalid JSON in {path} at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None

    def scalar(v):
        if isinstance(v, (int, float)):
            return complex(v)
        if isinstance(v, list) and len(v) == 2 and all(isinstance(t, (int, float)) for t in v):
            return complex(v[0], v[1])
        raise ValidationError(f"{what}: entries must be numbers or [re, im] pairs")

    if not isinstance(data, list):
        raise ValidationError(f"{what}: top level must be an array")
    if data and isinstance(data[0], list) and not (
        len(data[0]) == 2 and all(isinstance(t, (int, float)) for t in data[0])
    ):
        if not all(isinstance(row, list) and len(row) == len(data[0]) for row in data):
            raise ValidationError(f"{what}: rows must be arrays of equal length")
        as_pairs = np.array([[scalar(v) for v in row] for row in data], dtype=complex)
    else:
        as_pairs = np.array([scalar(v) for v in data], dtype=complex)
    try:
        as_reals = np.asarray(data, dtype=complex)
    except (TypeError, ValueError):  # ragged: pairs mixed with numbers
        return as_pairs
    for arr in (as_pairs, as_reals):
        if arr.shape == shape or (arr.ndim == 1 and (arr.size, 1) == shape):
            return arr
    return as_pairs


def _cmd_generate(args: argparse.Namespace, cfg: Config) -> int:
    if (args.lam is None) != (args.p is None):
        raise ParameterError("--lambda and --p must be given together")
    lam = p = None
    if args.lam is not None:
        lam = _read_complex_array(args.lam, "--lambda", (args.n - args.r, args.r))
        if lam.ndim == 1:
            lam = lam.reshape(-1, 1)
        p = _read_complex_array(args.p, "--p", (args.r,))
        if p.ndim != 1:
            raise ValidationError("--p: must be a flat array")
    fam = generate_family(args.r, args.n, lam, p, seed=cfg.seed, cfg=cfg)
    out = Path(args.output)
    metadata = {
        "family": "model",
        "r": fam.r,
        "n": fam.n,
        "lambda": jsonable(fam.lam),
        "p": jsonable(fam.p),
    }
    if lam is None:
        metadata["seed"] = cfg.seed
    doc = AlgebraDocument.from_complex(
        out.stem, fam.sc.C, fam.sc.D, g=fam.g, S=fam.S, metadata=metadata
    )
    doc.save(out)
    rep = AnalysisReport(name=doc.name, mode="complex", command="generate", config=cfg.as_dict())
    rep.add(
        "generate", "One can write down explicit examples", True, None,
        details=f"wrote {out}", category="construction",
    )
    rep.extras["parameters"] = metadata
    rep.verdict = f"model family instance r={fam.r} n={fam.n}"
    # -o names the document here, not the report, so the report goes to stdout
    args.output = None
    _emit(rep.to_dict(), rep.to_text(), args)
    return 0 if rep.requested_ok() else 1


def _cmd_batch(args: argparse.Namespace, cfg: Config) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        raise FormatError(f"not a directory: {root}")
    files = sorted(root.glob("*.json"))
    if not files:
        raise FormatError(f"no *.json documents in {root}")

    def one(path: Path):
        try:
            rep = run_analysis(load(path), cfg=cfg)
            return path.stem, rep, None
        except (FormatError, ValidationError) as e:
            return path.stem, None, str(e)

    workers = min(args.jobs, len(files))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(one, files))

    rows, reports, bad_input, failed = [], [], False, False
    for name, rep, err in results:
        if rep is None:
            rows.append((name, "-", "load error: " + err, "error"))
            bad_input = True
            continue
        ok = rep.requested_ok()
        failed = failed or not ok
        rows.append((name, rep.mode, rep.verdict, "ok" if ok else "FAIL"))
        reports.append(rep)

    width_n = max(len(r[0]) for r in rows)
    width_m = max(len(r[1]) for r in rows)
    width_v = max(len(r[2]) for r in rows)
    lines = [f"batch: {len(rows)} documents in {root}"]
    for name, mode, verdict, status in rows:
        lines.append(f"  {name:<{width_n}}  {mode:<{width_m}}  {verdict:<{width_v}}  {status}")
    text = "\n".join(lines) + "\n"

    body = {
        "tool": "hskahler",
        "tool_version": TOOL_VERSION,
        "command": "batch",
        "config": jsonable(cfg.as_dict()),
        "summary": [
            {"name": n, "mode": m, "verdict": v, "status": s} for n, m, v, s in rows
        ],
        "reports": [rep.to_dict() for rep in reports],
    }
    _emit(body, text, args)
    if bad_input:
        return 2
    return 1 if failed else 0


def run_command(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
        return int(e.code or 0)
    try:
        cfg = _load_config(args)
        if args.command == "generate":
            return _cmd_generate(args, cfg)
        if args.command == "batch":
            return _cmd_batch(args, cfg)
        doc = load(_resolve_document(args.file))
        if args.command == "analyze":
            rep = run_analysis(doc, cfg=cfg)
        elif args.command == "hs":
            rep = run_hs(doc, cfg=cfg, search=args.search,
                         restarts=args.restarts, budget=args.budget)
        elif args.command == "kahlerize":
            rep = run_kahlerize(doc, cfg=cfg)
        else:
            rep = run_verify_claims(doc, cfg=cfg)
        _emit(rep.to_dict(), rep.to_text(), args)
        return 0 if rep.requested_ok() else 1
    except (FormatError, ValidationError, ParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GeometryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
