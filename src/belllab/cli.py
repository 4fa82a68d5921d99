"""Command-line front end.

Subcommands: chsh (quantum prediction for a canonical state), scan
(violation-region grid export), lhv (local hidden-variable Monte Carlo),
agr (coincidence-counting experiment), selftest.

Angles are accepted in degrees unless --radians is given; reports echo both.
Options may come from a flat ``key = value`` config file via --config (keys
name options of the subcommand; flags win).  Every stochastic run (lhv, agr)
uses an explicit seed, the BELLLAB_SEED environment variable, or the default
0, and echoes it in the output.  Exit codes: 0 success, 1 a check failed
(lhv local bound, selftest), 2 usage or domain error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .algebra import (UnitVector3, canonical_coefficients, canonical_state, concurrence,
                      make_unit_vector, schmidt_decompose)
from .chsh import (
    MeasurementSettings,
    chsh_combination,
    chsh_value,
    correlation_matrix,
    gisin_settings,
    max_violation,
)
from .agr import ExperimentConfig, misalignment_for_damping, run_experiment
from .lhv import BUILTIN_MODELS, chsh_lhv, estimate_correlation
from .regions import MAX_GRID_N, Plane, scan_region, write_grid_csv, write_grid_json

VERSION_TAG = f"belllab {__version__}"
DEFAULT_SEED = 0
PAIR_LABELS = ("a,b", "a,b'", "a',b", "a',b'")
RADIANS_HELP = "interpret angle flags as radians (default: degrees)"
# The --format values each subcommand can render (flags and config files alike).
FORMATS = {"chsh": ("text", "json"), "scan": ("csv", "json"), "lhv": ("text", "json"),
           "agr": ("text", "json", "csv")}

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; blank lines and # comments are ignored."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


class _Options:
    """Flag values with config-file fallback (flags win over the file)."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(args.config) if getattr(args, "config", None) else {}
        unknown = sorted(set(self.config) - (set(vars(args)) - {"command", "func", "config"}))
        if unknown:
            raise ValueError(f"{args.config}: no {args.command} option named {', '.join(unknown)}")
        formats = FORMATS[args.command]
        if "format" in self.config and self.config["format"] not in formats:
            raise ValueError(f"{args.config}: {args.command} formats are {', '.join(formats)}")

    def get(self, key: str, cast, default=None):
        val = getattr(self.args, key, None)
        if val is None and key in self.config:
            val = cast(self.config[key]) if cast is not bool else _parse_bool(self.config[key])
        return default if val is None else val

    def seed(self) -> int:
        seed = self.get("seed", int)
        if seed is None:
            env = os.environ.get("BELLLAB_SEED")
            seed = int(env) if env else DEFAULT_SEED
        if seed < 0:
            raise ValueError("seed must be non-negative")
        return seed


def _normalize_pair(c1: float, c2: float) -> tuple[float, float]:
    """Renormalize user-typed coefficients (rounded input is fine, typos are not)."""
    n2 = c1 * c1 + c2 * c2
    if abs(n2 - 1.0) > 1e-6:
        raise ValueError(f"coefficients not normalized: c1^2 + c2^2 = {n2:.9g}")
    n = math.sqrt(n2)
    return c1 / n, c2 / n


def _to_radians(value: float, radians_flag: bool) -> float:
    return value if radians_flag else math.radians(value)


def _angles_both_units(rad: float) -> dict:
    return {"deg": math.degrees(rad), "rad": rad}


def _vector_dict(v: UnitVector3) -> dict:
    theta = math.acos(min(1.0, max(-1.0, v.z)))
    phi = math.atan2(v.y, v.x) % (2.0 * math.pi)
    return {
        "x": v.x,
        "y": v.y,
        "z": v.z,
        "theta": _angles_both_units(theta),
        "phi": _angles_both_units(phi),
    }


def _settings_dict(s: MeasurementSettings) -> dict:
    return {
        "a": _vector_dict(s.a),
        "b": _vector_dict(s.b),
        "a_prime": _vector_dict(s.a_prime),
        "b_prime": _vector_dict(s.b_prime),
    }


def _settings_from_options(opts: _Options) -> MeasurementSettings | None:
    """xz-plane settings from explicit polar angles, or None if not all given."""
    radians_flag = opts.get("radians", bool, False)
    angles = [opts.get(k, float) for k in ("alpha", "alpha_prime", "beta", "beta_prime")]
    if all(v is None for v in angles):
        return None
    if any(v is None for v in angles):
        raise ValueError("explicit settings need all of --alpha --alpha-prime --beta --beta-prime")
    al, alp, be, bep = (_to_radians(v, radians_flag) for v in angles)
    return _xz_settings(al, be, alp, bep)


def _xz_settings(a: float, b: float, a_prime: float, b_prime: float) -> MeasurementSettings:
    """xz-plane quadruple from the four polar angles in radians."""
    return MeasurementSettings(*(make_unit_vector(t, 0.0) for t in (a, b, a_prime, b_prime)))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------- chsh


def cmd_chsh(args: argparse.Namespace) -> int:
    opts = _Options(args)
    c1 = opts.get("c1", float)
    c2 = opts.get("c2", float)
    if c1 is None or c2 is None:
        raise ValueError("both --c1 and --c2 are required")
    c1, c2 = _normalize_pair(c1, c2)
    permissive = opts.get("permissive", bool, False)
    state = canonical_state(c1, c2, permissive=permissive)

    explicit = _settings_from_options(opts)
    use_gisin = opts.get("gisin", bool, False)
    if explicit is not None and use_gisin:
        raise ValueError("choose either --gisin or explicit angles, not both")
    if explicit is None and not use_gisin:
        raise ValueError("no settings source: pass --gisin or the four explicit angles")
    settings = gisin_settings(c1, c2) if use_gisin else explicit

    names = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")
    p = {name: correlation_matrix(state, a, b) for name, (a, b) in zip(names, settings.pairs())}
    s_value = chsh_combination(list(p.values()), "bell")
    bound = max_violation(c1, c2)
    payload = {
        "version": VERSION_TAG,
        "c1": c1,
        "c2": c2,
        "concurrence": concurrence(schmidt_decompose(state)),
        "settings_source": "gisin" if use_gisin else "explicit",
        "settings": _settings_dict(settings),
        "P": p,
        "S": s_value,
        "max_violation": bound,
        "violated": s_value > 2.0,
    }
    if opts.get("format", str, "text") == "json":
        _emit(_dump_json(payload), opts.get("out", str))
    else:
        lines = [
            f"{VERSION_TAG} chsh",
            f"state: c1={c1:.9g} c2={c2:.9g} concurrence={payload['concurrence']:.9g}",
            f"settings: {payload['settings_source']}",
        ]
        for name in ("a", "b", "a_prime", "b_prime"):
            d = payload["settings"][name]
            lines.append(
                f"  {name:8s} ({d['x']:+.6f}, {d['y']:+.6f}, {d['z']:+.6f})"
                f"  theta={d['theta']['deg']:.4f} deg ({d['theta']['rad']:.6f} rad)"
            )
        lines += [
            f"P(a,b)={p['ab']:.9g}  P(a,b')={p['ab_prime']:.9g}  "
            f"P(a',b)={p['a_prime_b']:.9g}  P(a',b')={p['a_prime_b_prime']:.9g}",
            f"S = {s_value:.9g}",
            f"max_violation = {bound:.9g}",
            f"violated: {'true' if payload['violated'] else 'false'}",
        ]
        _emit("\n".join(lines), opts.get("out", str))
    return 0


# ---------------------------------------------------------------- scan


def _coefficients_from_options(opts: _Options) -> tuple[float, float]:
    c1 = opts.get("c1", float)
    c2 = opts.get("c2", float)
    conc = opts.get("concurrence", float)
    if conc is not None:
        if c1 is not None or c2 is not None:
            raise ValueError("pass either --concurrence or --c1/--c2, not both")
        return canonical_coefficients(conc, opts.get("sign", int, 1))
    if c1 is None or c2 is None:
        raise ValueError("pass --concurrence or both --c1 and --c2")
    return _normalize_pair(c1, c2)


def cmd_scan(args: argparse.Namespace) -> int:
    opts = _Options(args)
    plane = Plane(opts.get("plane", str, "xy"))
    c1, c2 = _coefficients_from_options(opts)
    grid_n = opts.get("grid", int, 512)
    out = opts.get("out", str)
    fmt = opts.get("format", str, "csv")
    grid = scan_region(plane, c1, c2, grid_n)
    if out:
        if fmt == "json":
            write_grid_json(grid, out)
        else:
            write_grid_csv(grid, out)
    print(
        f"{VERSION_TAG} scan plane={plane.value} c1={c1:.9g} c2={c2:.9g} "
        f"grid={grid_n} violating_fraction={grid.violating_fraction:.9g}"
        + (f" out={out}" if out else "")
    )
    return 0


# ---------------------------------------------------------------- lhv


def cmd_lhv(args: argparse.Namespace) -> int:
    opts = _Options(args)
    model_name = opts.get("model", str, "bell-sign")
    if model_name not in BUILTIN_MODELS:
        raise ValueError(f"unknown model {model_name!r}; known: {sorted(BUILTIN_MODELS)}")
    model = BUILTIN_MODELS[model_name]()
    samples = opts.get("samples", int, 100_000)
    seed = opts.seed()

    gisin_for = opts.get("gisin_for", lambda s: [float(x) for x in s.split()])
    explicit = _settings_from_options(opts)
    if gisin_for is not None and explicit is not None:
        raise ValueError("choose either --gisin-for or explicit angles, not both")
    if gisin_for is not None:
        settings = gisin_settings(*_normalize_pair(float(gisin_for[0]), float(gisin_for[1])))
    elif explicit is not None:
        settings = explicit
    else:
        raise ValueError("no settings source: pass --gisin-for C1 C2 or explicit angles")

    est = chsh_lhv(model, settings, samples, seed)
    within = est.value <= 2.0 + 5.0 * est.std_error
    payload = {
        "version": VERSION_TAG,
        "model": model_name,
        "samples": samples,
        "seed": seed,
        "settings": _settings_dict(settings),
        "E": [
            {"pair": label, "value": e.value, "stderr": e.std_error}
            for label, e in zip(PAIR_LABELS, est.correlations())
        ],
        "S": est.value,
        "stderr": est.std_error,
        "within_local_bound": within,
    }
    if opts.get("format", str, "text") == "json":
        _emit(_dump_json(payload), opts.get("out", str))
    else:
        lines = [f"{VERSION_TAG} lhv model={model_name} samples={samples} seed={seed}"]
        for entry in payload["E"]:
            lines.append(
                f"E({entry['pair']}) = {entry['value']:+.6f} +- {entry['stderr']:.6f}"
            )
        lines += [
            f"S = {est.value:.6f} +- {est.std_error:.6f}",
            f"local bound (S <= 2 within 5 sigma): {'pass' if within else 'FAIL'}",
        ]
        _emit("\n".join(lines), opts.get("out", str))
    return 0 if within else 1


# ---------------------------------------------------------------- agr

SINGLET_C1 = 1.0 / math.sqrt(2.0)


def _agr_csv(payload: dict) -> str:
    """One row per orientation pair: its coincidence counts and its E estimate."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pair", "r_pp", "r_pm", "r_mp", "r_mm", "n_pairs", "E", "stderr"])
    for c, e in zip(payload["counts"], payload["E"]):
        writer.writerow([c["pair"], c["r_pp"], c["r_pm"], c["r_mp"], c["r_mm"], c["n_pairs"],
                         e["value"], e["stderr"]])
    return buf.getvalue().rstrip("\n")


def cmd_agr(args: argparse.Namespace) -> int:
    opts = _Options(args)
    radians_flag = opts.get("radians", bool, False)
    c1, c2 = _normalize_pair(
        opts.get("c1", float, SINGLET_C1), opts.get("c2", float, -SINGLET_C1)
    )
    state = canonical_state(c1, c2, permissive=True)

    # Default analyzer quadruple: the coplanar angles maximizing |S|.
    defaults_deg = {"a": 0.0, "a_prime": 90.0, "b": 45.0, "b_prime": 135.0}
    angles = {}
    for key, deg in defaults_deg.items():
        raw = opts.get(key, float)
        angles[key] = _to_radians(raw, radians_flag) if raw is not None else math.radians(deg)
    settings = _xz_settings(angles["a"], angles["b"], angles["a_prime"], angles["b_prime"])

    damping = opts.get("damping", float)
    sigma = opts.get("misalignment_sigma", float)
    if damping is not None and sigma is not None:
        raise ValueError("pass either --damping or --misalignment-sigma, not both")
    if damping is not None:
        sigma = misalignment_for_damping(damping)
    cfg = ExperimentConfig(
        state=state,
        settings=settings,
        n_pairs=opts.get("pairs", int, 1_000_000),
        efficiency=opts.get("efficiency", float, 1.0),
        misalignment_sigma=sigma if sigma is not None else 0.0,
        seed=opts.seed(),
    )
    report = run_experiment(cfg)
    payload = {
        "version": VERSION_TAG,
        "seed": cfg.seed,
        "n_pairs": cfg.n_pairs,
        "efficiency": cfg.efficiency,
        "misalignment_sigma": cfg.misalignment_sigma,
        "state": {"c1": c1, "c2": c2},
        "settings": _settings_dict(settings),
        "counts": [
            {
                "pair": label,
                "r_pp": c.r_pp,
                "r_pm": c.r_pm,
                "r_mp": c.r_mp,
                "r_mm": c.r_mm,
                "n_pairs": c.n_pairs,
            }
            for label, c in zip(PAIR_LABELS, report.counts)
        ],
        "E": [
            {"pair": label, "value": e.value, "stderr": e.std_error}
            for label, e in zip(PAIR_LABELS, report.correlations)
        ],
        "S": report.s.s_value,
        "stderr": report.s.std_error,
    }
    out = opts.get("out", str)
    fmt = opts.get("format", str, "text")
    if fmt == "csv":
        _emit(_agr_csv(payload), out)
    elif fmt == "json" or out:
        _emit(_dump_json(payload), out)
    if fmt == "text":
        lines = [
            f"{VERSION_TAG} agr pairs={cfg.n_pairs} efficiency={cfg.efficiency:.9g} "
            f"misalignment_sigma={cfg.misalignment_sigma:.9g} seed={cfg.seed}",
        ]
        for entry in payload["E"]:
            lines.append(
                f"E({entry['pair']}) = {entry['value']:+.6f} +- {entry['stderr']:.6f}"
            )
        lines.append(f"S = {report.s.s_value:.6f} +- {report.s.std_error:.6f}")
        lines.append(f"|S| = {abs(report.s.s_value):.6f}")
        print("\n".join(lines))
    return 0


# ---------------------------------------------------------------- selftest


def cmd_selftest(args: argparse.Namespace) -> int:
    del args
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name} {detail}")

    rng = np.random.default_rng(20260809)

    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.05, math.pi / 2 - 0.05)
        c1, c2 = math.cos(t), math.sin(t) * rng.choice([-1.0, 1.0])
        s = chsh_value(canonical_state(c1, c2), gisin_settings(c1, c2))
        worst = max(worst, abs(s - max_violation(c1, c2)))
    check("gisin-max-violation", worst < 1e-9, f"(max |diff| = {worst:.3g})")

    from .chsh import correlation_closed

    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(0.0, math.pi / 2)
        c1, c2 = math.cos(t), math.sin(t)
        a = make_unit_vector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        b = make_unit_vector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        diff = abs(
            correlation_closed(c1, c2, a, b)
            - correlation_matrix(canonical_state(c1, c2, permissive=True), a, b)
        )
        worst = max(worst, diff)
    check("closed-vs-matrix", worst < 1e-12, f"(max |diff| = {worst:.3g})")

    settings = gisin_settings(SINGLET_C1, SINGLET_C1)
    for name in ("bell-sign", "averaged-linear"):
        est = chsh_lhv(BUILTIN_MODELS[name](), settings, 200_000, 7)
        check(
            f"lhv-bound-{name}",
            est.value <= 2.0 + 5.0 * est.std_error,
            f"(S = {est.value:.4f} +- {est.std_error:.4f})",
        )

    e = estimate_correlation(
        BUILTIN_MODELS["bell-sign"](),
        UnitVector3(0, 0, 1),
        make_unit_vector(math.pi / 2, 0.0),
        200_000,
        11,
    )
    check(
        "bell-sign-analytic",
        abs(e.value - 0.0) <= 5.0 * e.std_error,
        f"(E = {e.value:.4f} +- {e.std_error:.4f})",
    )

    cfg = ExperimentConfig(
        state=canonical_state(SINGLET_C1, -SINGLET_C1),
        settings=_xz_settings(0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4),
        n_pairs=200_000,
        seed=3,
    )
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    check("agr-determinism", r1.counts == r2.counts)
    check(
        "agr-ideal-s",
        abs(abs(r1.s.s_value) - 2.0 * math.sqrt(2.0)) <= 5.0 * r1.s.std_error,
        f"(|S| = {abs(r1.s.s_value):.4f} +- {r1.s.std_error:.4f})",
    )

    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--config", help="flat key = value option file (flags win)")
    p.add_argument("--format", choices=formats, default=None)
    p.add_argument("--out", default=None, help="write the report/grid to this path")


def _add_angle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radians", action="store_true", default=None, help=RADIANS_HELP)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-prime", dest="alpha_prime", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--beta-prime", dest="beta_prime", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="belllab", description=__doc__)
    parser.add_argument("--version", action="version", version=VERSION_TAG)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chsh", help="quantum CHSH value for a canonical state")
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--gisin", action="store_true", default=None,
                   help="use the maximizing analyzer quadruple")
    p.add_argument("--permissive", action="store_true", default=None,
                   help="accept the separable limit c1*c2 = 0")
    _add_angle_flags(p)
    _add_common(p, FORMATS["chsh"])
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("scan", help="violation-region grid scan (CSV/JSON export)")
    p.add_argument("--plane", choices=tuple(pl.value for pl in Plane), default=None)
    p.add_argument("--concurrence", type=float, default=None)
    p.add_argument("--sign", type=int, choices=(-1, 1), default=None,
                   help="sign of c1*c2 when using --concurrence")
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--grid", type=int, default=None, help=f"cells per axis, at most {MAX_GRID_N}")
    _add_common(p, FORMATS["scan"])
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("lhv", help="Monte Carlo CHSH for a local hidden-variable model")
    p.add_argument("--model", choices=tuple(sorted(BUILTIN_MODELS)), default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--gisin-for", dest="gisin_for", nargs=2, type=float, default=None,
                   metavar=("C1", "C2"),
                   help="use the maximizing quadruple for these coefficients")
    p.add_argument("--seed", type=int, default=None)
    _add_angle_flags(p)
    _add_common(p, FORMATS["lhv"])
    p.set_defaults(func=cmd_lhv)

    p = sub.add_parser("agr", help="simulated coincidence-counting experiment")
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--a-prime", dest="a_prime", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--b-prime", dest="b_prime", type=float, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--efficiency", type=float, default=None)
    p.add_argument("--damping", type=float, default=None,
                   help="target mean correlation damping (sets the misalignment width)")
    p.add_argument("--misalignment-sigma", dest="misalignment_sigma", type=float,
                   default=None, help="pointing-error width in radians")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--radians", action="store_true", default=None, help=RADIANS_HELP)
    _add_common(p, FORMATS["agr"])
    p.set_defaults(func=cmd_agr)

    p = sub.add_parser("selftest", help="quick end-to-end sanity checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"belllab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"belllab: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
