"""Command-line front door: expand elements, estimate constants, run suites,
emit plot-ready curves.

Exit codes are a stable contract: 0 success, 1 usage or configuration error,
2 suite failure.  Summary numbers on stdout are printed with 12 significant
digits; artifact files keep full precision so every reported value can be
recomputed from the serialized inputs alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional

from .catalog import frame_from_label
from .frames import (
    clamped_tail,
    covering_truncation,
    estimate_frame_constant,
    seeded_ball_point,
    shrinking_tail,
    sweep_arrays,
    synthesis_partial,
)
from .spaces import MAX_SEQ_INDEX
from .verify import (
    DEFAULT_FRAME_LABELS,
    SUITES,
    csv_text,
    json_text,
    run_all,
    spec_for_label,
    write_reports,
)

__all__ = ["main", "CliUsageError"]

_DEFAULT_SEED = 42
_DEFAULT_SAMPLES = 2000
# The sweep reserves (extreme pairs + samples) x (2 + schedule length)
# floats before it draws, so larger budgets are refused up front.
_MAX_SAMPLES = 10**6
_DEFAULT_CONSTANT_N = 256
_CURVES = ("residual", "constant", "shrinking-tail")
# The settings some subcommand reads from a config file.
_CONFIG_KEYS = ("frame", "n", "samples", "seed", "format", "input", "schedule", "workers", "curve")


class CliUsageError(Exception):
    """Bad flags, bad config, bad labels: anything that should exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; our contract reserves 2
    # for suite failures, so route parse errors through the usage exception.
    def error(self, message: str):  # noqa: D102 - argparse override
        raise CliUsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _to_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliUsageError(f"expected an integer, got {text!r}") from None


def _parse_schedule(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_to_int(part) for part in text.split(","))


def _load_config(path: Optional[str]) -> dict[str, str]:
    """Flat `key = value` file; blank lines and #-comments ignored.  Each key
    is one of _CONFIG_KEYS, given at most once."""
    if path is None:
        return {}
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise CliUsageError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key = key.strip()
                if key not in _CONFIG_KEYS or key in values:
                    problem = "repeated" if key in values else "unknown"
                    raise CliUsageError(f"{path}:{lineno}: {problem} key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise CliUsageError(f"cannot read config file {path}: {exc}") from None
    return values


def _resolve(
    ns: argparse.Namespace,
    cfg: dict[str, str],
    key: str,
    convert: Callable[[str], object],
    default=None,
    env: Optional[str] = None,
):
    """Flag beats config file beats environment beats built-in default."""
    value = getattr(ns, key.replace("-", "_"), None)
    if value is None and key in cfg:
        value = cfg[key]
    if value is None and env is not None:
        value = os.environ.get(env)
    if value is None:
        return default
    return convert(value) if isinstance(value, str) else value


def _resolve_seed(ns, cfg) -> int:
    # FRAMEKIT_SEED overrides only the built-in default, never explicit flags
    # or config files.
    return _resolve(ns, cfg, "seed", _to_int, default=_DEFAULT_SEED, env="FRAMEKIT_SEED")


def _resolve_samples(ns, cfg, default=_DEFAULT_SAMPLES):
    samples = _resolve(ns, cfg, "samples", _to_int, default=default)
    if samples is not None and not 1 <= samples <= _MAX_SAMPLES:
        raise CliUsageError(f"samples must be in 1..{_MAX_SAMPLES}, got {samples}")
    return samples


def _require_frame(ns, cfg):
    label = _resolve(ns, cfg, "frame", str)
    if not label:
        raise CliUsageError("a frame label is required (--frame LABEL)")
    return label, frame_from_label(label)  # bad labels raise ValueError: exit 1


def _load_element(space, path: str):
    """The element stored in path, in the space's JSON form."""
    try:
        with open(path, encoding="utf-8") as fh:
            return space.element.from_json_obj(json.load(fh))
    except OSError as exc:
        raise CliUsageError(f"cannot read element file: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise CliUsageError(f"malformed element in {path}: {exc}") from None


def _check_truncation(F, n: int, low: int, names=("truncation", "truncation")) -> None:
    """Usage error unless low <= n <= the frame's largest rank; ``names`` are
    the plural and singular nouns the messages use for n.  Operators are
    dense up to n, so frames with no largest rank are capped at the
    element-file cap, or at their full truncation when that is larger."""
    many, one = names
    if n < low:
        raise CliUsageError(f"{many} must be >= {low}, got {n}")
    if F.max_rank is not None and n > F.max_rank:
        raise CliUsageError(
            f"{one} {n} exceeds the frame's representable ranks (max {F.max_rank})"
        )
    cap = max(MAX_SEQ_INDEX, F.full_truncation or 0)
    if F.max_rank is None and n > cap:
        raise CliUsageError(f"{one} {n} exceeds the truncation cap {cap}")


def _write_text(path: Optional[str], text: str, default_name: str) -> str:
    target = path if path else default_name
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(text)
    return target


def _artifact_text(ns, cfg, default_fmt: str, obj, header, rows) -> tuple[str, str]:
    """(text, format) of an artifact: obj as JSON, or header and rows as CSV."""
    fmt = _resolve(ns, cfg, "format", str, default=default_fmt)
    if fmt == "json":
        return json_text(obj), fmt
    if fmt == "csv":
        return csv_text(header, rows), fmt
    raise CliUsageError(f"unknown format {fmt!r} (choose json or csv)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_expand(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns.config)
    label, F = _require_frame(ns, cfg)
    space = F.space
    input_path = _resolve(ns, cfg, "input", str)
    if not input_path:
        raise CliUsageError(
            "expand needs --input FILE holding an element in the space's JSON form"
        )
    x = _load_element(space, input_path)

    n = _resolve(ns, cfg, "n", _to_int)
    if n is None:
        n = covering_truncation(F, x)
        if n is None:
            raise CliUsageError(
                "this element has no finite covering truncation; pass --n"
            )
    _check_truncation(F, n, 0)

    coeffs = F.coeff_batch(space.coordinates(x), n).tolist() if n else []
    partial = synthesis_partial(F, x, n)
    residual = space.element_norm(x - partial)

    artifact = {
        "frame": label,
        "truncation": n,
        "coefficients": coeffs,
        "partial_sum": partial.to_json_obj(),
        "residual": residual,
    }
    rows = [[str(k + 1), repr(c)] for k, c in enumerate(coeffs)]
    text, fmt = _artifact_text(ns, cfg, "json", artifact, ["n", "coefficient"], rows)
    target = _write_text(ns.out, text, f"expand.{fmt}")

    print(f"frame: {label}")
    print(f"truncation: {n}")
    print(f"residual: {_fmt(residual)}")
    print(f"wrote {target}")
    return 0


def cmd_constant(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns.config)
    label, F = _require_frame(ns, cfg)
    n = _resolve(ns, cfg, "n", _to_int)
    if n is None:
        n = F.full_truncation if F.full_truncation is not None else _DEFAULT_CONSTANT_N
        if F.max_rank is not None:
            n = min(n, F.max_rank)
    _check_truncation(F, n, 1)
    samples = _resolve_samples(ns, cfg)
    seed = _resolve_seed(ns, cfg)

    lhat = estimate_frame_constant(F, n, samples, seed)

    artifact = {
        "frame": label,
        "truncation": n,
        "samples": samples,
        "seed": seed,
        "constant": lhat,
    }
    header = ["frame", "N", "samples", "seed", "constant"]
    rows = [[label, str(n), str(samples), str(seed), repr(lhat)]]
    text, fmt = _artifact_text(ns, cfg, "json", artifact, header, rows)
    target = _write_text(ns.out, text, f"constant.{fmt}")

    print(f"frame: {label}")
    print(f"truncation: {n}")
    print(f"samples: {samples}")
    print(f"seed: {seed}")
    print(f"constant: {_fmt(lhat)}")
    print(f"wrote {target}")
    return 0


def cmd_suite(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns.config)
    name = ns.name
    suites = None if name == "all" else (name,)

    label = _resolve(ns, cfg, "frame", str)
    labels = (label,) if label else DEFAULT_FRAME_LABELS
    overrides = {}
    samples = _resolve_samples(ns, cfg, default=None)
    if samples is not None:
        overrides["samples"] = samples
    overrides["seed"] = _resolve_seed(ns, cfg)
    schedule = _resolve(ns, cfg, "schedule", _parse_schedule)
    if schedule is not None:
        if not schedule:
            raise CliUsageError("suite runs need a non-empty schedule")
        overrides["schedule"] = schedule
    specs = [spec_for_label(lbl, **overrides) for lbl in labels]
    for spec in specs:
        _check_truncation(frame_from_label(spec.label), spec.schedule[-1], 1)

    workers = _resolve(ns, cfg, "workers", _to_int, default=1)
    if workers < 1:
        raise CliUsageError(f"workers must be >= 1, got {workers}")

    bundle = run_all(specs, workers=workers, suites=suites)
    out_dir = ns.out if ns.out else "."
    json_path, csv_path = write_reports(bundle, out_dir)

    fmt = _resolve(ns, cfg, "format", str)
    if fmt == "json":
        sys.stdout.write(bundle.to_json())
    elif fmt == "csv":
        sys.stdout.write(bundle.to_csv())
    elif fmt is not None:
        raise CliUsageError(f"unknown format {fmt!r} (choose json or csv)")
    else:
        for report in bundle.reports:
            status = "PASS" if report.all_pass() else "FAIL"
            tail = f" [{report.verdict}]" if report.verdict else ""
            print(f"{report.suite:<18} {report.label:<34} {status}{tail}")
    print(f"wrote {json_path} and {csv_path}")
    return 0 if bundle.all_pass() else 2


def cmd_tabulate(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns.config)
    label, F = _require_frame(ns, cfg)
    space = F.space
    curve = _resolve(ns, cfg, "curve", str)
    if curve not in _CURVES:
        raise CliUsageError(
            f"--curve must be one of {', '.join(_CURVES)}; got {curve!r}"
        )
    seed = _resolve_seed(ns, cfg)
    samples = _resolve_samples(ns, cfg)
    schedule = _resolve(ns, cfg, "schedule", _parse_schedule)
    if schedule is None:
        schedule = spec_for_label(label).schedule
    for N in schedule:
        _check_truncation(F, N, 1, ("schedule entries", "schedule entry"))

    if curve == "residual":
        input_path = _resolve(ns, cfg, "input", str)
        if input_path:
            x = _load_element(space, input_path)
        else:
            x = seeded_ball_point(space, seed, "tabulate", 0)
        values = [space.element_norm(x - synthesis_partial(F, x, N)) for N in schedule]
    elif curve == "constant":
        # One sweep over the sorted truncations; rows keep the given order.
        truncations = tuple(sorted(set(schedule)))
        constants = (
            sweep_arrays(F, truncations, samples, seed)[2].max(axis=0).tolist()
            if truncations
            else []
        )
        by_n = dict(zip(truncations, constants))
        values = [by_n[N] for N in schedule]
    else:  # shrinking-tail
        xstar = space.dual.from_coordinates(space.dual.extreme_ball_points()[0])
        values = [clamped_tail(shrinking_tail, F, xstar, N, 2 * N) for N in schedule]

    curve_obj = {
        "frame": label,
        "curve": curve,
        "rows": [[N, v] for N, v in zip(schedule, values)],
    }
    rows = [[str(N), _fmt(v)] for N, v in zip(schedule, values)]
    text = _artifact_text(ns, cfg, "csv", curve_obj, ["N", curve], rows)[0]

    if ns.out:
        target = _write_text(ns.out, text, "tabulate.csv")
        print(f"wrote {target}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--frame", help="catalog frame label, e.g. haar:p=2:J=8")
    parser.add_argument("--n", help="truncation rank")
    parser.add_argument("--samples", help=f"random sample budget (at most {_MAX_SAMPLES})")
    parser.add_argument("--seed", help="base seed (FRAMEKIT_SEED overrides the default)")
    parser.add_argument("--out", help="output file (or directory for suite)")
    parser.add_argument("--format", help="artifact format: json or csv")
    parser.add_argument("--config", help="flat key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="framekit",
        description="Numerical experiments with coordinate expansions on Banach spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_expand = sub.add_parser(
        "expand", help="coefficients, partial sum and residual for one element"
    )
    _add_shared_flags(p_expand)
    p_expand.add_argument("--input", help="element file in the space's JSON form")
    p_expand.set_defaults(func=cmd_expand)

    p_constant = sub.add_parser(
        "constant", help="sampled estimate of the frame constant"
    )
    _add_shared_flags(p_constant)
    p_constant.set_defaults(func=cmd_constant)

    p_suite = sub.add_parser("suite", help="run experiment suites and write reports")
    p_suite.add_argument(
        "name",
        choices=("all",) + tuple(sorted(SUITES)),
        help="suite to run, or 'all'",
    )
    _add_shared_flags(p_suite)
    p_suite.add_argument("--schedule", help="comma-separated truncations, e.g. 4,16,64")
    p_suite.add_argument("--workers", help="thread count for the per-spec suite tasks")
    p_suite.set_defaults(func=cmd_suite)

    p_tab = sub.add_parser("tabulate", help="emit a plot-ready (N, metric) curve")
    _add_shared_flags(p_tab)
    p_tab.add_argument("--curve", help="one of: " + ", ".join(_CURVES))
    p_tab.add_argument("--schedule", help="comma-separated truncations; empty for header-only")
    p_tab.add_argument("--input", help="element file for the residual curve")
    p_tab.set_defaults(func=cmd_tabulate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
