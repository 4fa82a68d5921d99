"""Command-line front end.

Subcommands: chsh (quantum prediction for a canonical state), scan
(violation-region grid export), lhv (local hidden-variable Monte Carlo),
agr (coincidence-counting experiment), selftest.

Angles are accepted in degrees unless --radians is given; reports echo both.
Options may come from a flat ``key = value`` config file via --config (keys
name options of the subcommand).  Each option takes its value from the flag,
else the config file, else (--seed only) the BELLLAB_SEED environment
variable, else its default; stochastic runs (lhv, agr) echo the seed.  Exit
codes: 0 success, 1 a check failed (lhv local bound, selftest), 2 usage or
domain error, 3 I/O error.
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
from .algebra import (UnitVector3, canonical_coefficients, canonical_state, check_normalized,
                      concurrence, make_unit_vector, schmidt_decompose)
from .chsh import (
    Correlators,
    MeasurementSettings,
    chsh_combination,
    chsh_value,
    correlation_closed,
    correlation_matrix,
    gisin_settings,
    max_violation,
)
from .agr import ExperimentConfig, misalignment_for_damping, run_experiment
from .lhv import BUILTIN_MODELS, chsh_lhv, estimate_correlation
from .regions import MAX_GRID_N, Plane, scan_region, write_grid_csv, write_grid_json

VERSION_TAG = f"belllab {__version__}"
PAIR_LABELS = ("a,b", "a,b'", "a',b", "a',b'")
SETTING_NAMES = ("a", "b", "a_prime", "b_prime")
RADIANS_HELP = "interpret angle flags as radians, not degrees"
SINGLET_C1 = 1.0 / math.sqrt(2.0)
# agr's default quadruple, the coplanar angles maximizing |S|.  These stay in
# degrees under --radians, which applies only to the angles a user gives.
AGR_ANGLES_DEG = {"a": 0.0, "a_prime": 90.0, "b": 45.0, "b_prime": 135.0}

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
            key = key.strip().replace("-", "_")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key}")
            values[key] = val.strip()
    return values


def config_defaults(parser: argparse.ArgumentParser, path: str, command: str) -> dict:
    """Values of a config file, cast by the subcommand's own actions (type, choices, nargs)."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    config = load_config(path)
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise ValueError(f"{path}: no {command} option named {', '.join(unknown)}")
    defaults = {}
    for key, text in config.items():
        action = actions[key]
        words = text.split() if action.nargs else [text]
        if action.nargs and len(words) != action.nargs:
            raise ValueError(f"{path}: {key} takes {action.nargs} values")
        cast = _parse_bool if action.nargs == 0 else action.type or str  # nargs 0: store_true
        try:
            values = [cast(w) for w in words]
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
        if action.choices is not None and any(v not in action.choices for v in values):
            raise ValueError(f"{path}: {command} {key}s are {', '.join(map(str, action.choices))}")
        defaults[key] = values if action.nargs else values[0]
    return defaults


def _normalize_pair(c1: float, c2: float) -> tuple[float, float]:
    """Renormalize user-typed coefficients (rounded input is fine, typos are not)."""
    n = math.sqrt(check_normalized(c1, c2, tol=1e-6))
    return c1 / n, c2 / n


def _to_radians(value: float, radians_flag: bool) -> float:
    return value if radians_flag else math.radians(value)


def _angles_both_units(rad: float) -> dict:
    return {"deg": math.degrees(rad), "rad": rad}


def _settings_report(s: MeasurementSettings) -> tuple[dict, list[str]]:
    """Each analyzer's components and polar angles (theta, phi) in both units, and its text line."""
    vectors, lines = {}, []
    for name in SETTING_NAMES:
        v = getattr(s, name)
        theta, phi = math.acos(min(1.0, max(-1.0, v.z))), math.atan2(v.y, v.x) % (2.0 * math.pi)
        vectors[name] = {"x": v.x, "y": v.y, "z": v.z,
                         "theta": _angles_both_units(theta), "phi": _angles_both_units(phi)}
        lines.append(f"  {name:8s} ({v.x:+.6f}, {v.y:+.6f}, {v.z:+.6f})"
                     f"  theta={math.degrees(theta):.4f} deg ({theta:.6f} rad)")
    return vectors, lines


def _settings(args: argparse.Namespace, coefficients, flag: str) -> MeasurementSettings:
    """Gisin's quadruple for coefficients (None if flag is not given), or the four explicit
    xz-plane polar angles; exactly one of the two sources must be given."""
    angles = [args.alpha, args.alpha_prime, args.beta, args.beta_prime]
    given = sum(v is not None for v in angles)
    if 0 < given < 4:
        raise ValueError("explicit settings need all of --alpha --alpha-prime --beta --beta-prime")
    if given and coefficients is not None:
        raise ValueError(f"choose either {flag} or explicit angles, not both")
    if coefficients is not None:
        return gisin_settings(*_normalize_pair(*coefficients))
    if not given:
        raise ValueError(f"no settings source: pass {flag} or the four explicit angles")
    al, alp, be, bep = (_to_radians(v, args.radians) for v in angles)
    return _xz_settings(al, be, alp, bep)


def _xz_settings(a: float, b: float, a_prime: float, b_prime: float) -> MeasurementSettings:
    """xz-plane quadruple from the four polar angles in radians."""
    return MeasurementSettings(*(make_unit_vector(t, 0.0) for t in (a, b, a_prime, b_prime)))


def _estimate_fields(c: Correlators) -> list[tuple]:
    """The E(pair) estimates and S of a Monte Carlo report, each with its standard error."""
    pairs = list(zip(PAIR_LABELS, c.correlations()))
    s, stderr = c.value, c.std_error
    return [
        ("E", [{"pair": label, "value": e.value, "stderr": e.std_error} for label, e in pairs],
         [f"E({label}) = {e.value:+.6f} +- {e.std_error:.6f}" for label, e in pairs]),
        ("S", s, [f"S = {s:.6f} +- {stderr:.6f}"]),
        ("stderr", stderr, []),
    ]


def _emit(fmt: str, out: str | None, header: str, fields: list[tuple], rows=()) -> None:
    """Render a report as text, JSON or CSV rows; write it to out, else print it.

    Each field is (key, value, lines): key is its JSON key (None for a text-only
    line) and lines the text it prints (none for a JSON-only field).
    """
    if fmt == "json":
        payload = {"version": VERSION_TAG, **{key: value for key, value, _ in fields if key is not None}}
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue().rstrip("\n")
    else:
        text = "\n".join([f"{VERSION_TAG} {header}", *(line for _, _, lines in fields for line in lines)])
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------- chsh


def cmd_chsh(args: argparse.Namespace) -> int:
    if args.c1 is None or args.c2 is None:
        raise ValueError("both --c1 and --c2 are required")
    c1, c2 = _normalize_pair(args.c1, args.c2)
    state = canonical_state(c1, c2)

    settings = _settings(args, (args.c1, args.c2) if args.gisin else None, "--gisin")

    names = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")
    p = {name: correlation_matrix(state, a, b) for name, (a, b) in zip(names, settings.pairs())}
    s_value = chsh_combination(list(p.values()), "bell")
    bound = max_violation(c1, c2)
    conc = concurrence(schmidt_decompose(state))
    source = "gisin" if args.gisin else "explicit"
    violated = s_value > 2.0
    fields = [
        ("c1", c1, []),
        ("c2", c2, []),
        ("concurrence", conc, [f"state: c1={c1:.9g} c2={c2:.9g} concurrence={conc:.9g}"]),
        ("settings_source", source, [f"settings: {source}"]),
        ("settings", *_settings_report(settings)),
        ("P", p, ["  ".join(f"P({label})={v:.9g}" for label, v in zip(PAIR_LABELS, p.values()))]),
        ("S", s_value, [f"S = {s_value:.9g}"]),
        ("max_violation", bound, [f"max_violation = {bound:.9g}"]),
        ("violated", violated, [f"violated: {str(violated).lower()}"]),
    ]
    _emit(args.format, args.out, "chsh", fields)
    return 0


# ---------------------------------------------------------------- scan


def cmd_scan(args: argparse.Namespace) -> int:
    if args.concurrence is not None:
        if args.c1 is not None or args.c2 is not None:
            raise ValueError("pass either --concurrence or --c1/--c2, not both")
        c1, c2 = canonical_coefficients(args.concurrence, args.sign or 1)
    elif args.c1 is None or args.c2 is None:
        raise ValueError("pass --concurrence or both --c1 and --c2")
    elif args.sign is not None:
        raise ValueError("--sign applies only to --concurrence; give c2 its sign instead")
    else:
        c1, c2 = _normalize_pair(args.c1, args.c2)
    grid = scan_region(args.plane, c1, c2, args.grid)
    if args.out:
        if args.format == "json":
            write_grid_json(grid, args.out)
        else:
            write_grid_csv(grid, args.out)
    print(
        f"{VERSION_TAG} scan plane={grid.plane.value} c1={c1:.9g} c2={c2:.9g} "
        f"grid={args.grid} violating_fraction={grid.violating_fraction:.9g}"
        + (f" out={args.out}" if args.out else "")
    )
    return 0


# ---------------------------------------------------------------- lhv


def cmd_lhv(args: argparse.Namespace) -> int:
    settings = _settings(args, args.gisin_for, "--gisin-for")
    est = chsh_lhv(BUILTIN_MODELS[args.model](), settings, args.samples, args.seed)
    within = est.value <= 2.0
    fields = [
        ("model", args.model, []),
        ("samples", args.samples, []),
        ("seed", args.seed, []),
        ("settings", _settings_report(settings)[0], []),
        *_estimate_fields(est),
        ("within_local_bound", within, [f"local bound (S <= 2 exactly): {'pass' if within else 'FAIL'}"]),
    ]
    _emit(args.format, args.out, f"lhv model={args.model} samples={args.samples} seed={args.seed}", fields)
    return 0 if within else 1


# ---------------------------------------------------------------- agr


def cmd_agr(args: argparse.Namespace) -> int:
    c1, c2 = _normalize_pair(args.c1, args.c2)
    state = canonical_state(c1, c2)
    angles = {
        key: math.radians(deg) if getattr(args, key) is None
        else _to_radians(getattr(args, key), args.radians)
        for key, deg in AGR_ANGLES_DEG.items()
    }
    settings = _xz_settings(**angles)

    sigma = args.misalignment_sigma
    if args.damping is not None:
        if sigma is not None:
            raise ValueError("pass either --damping or --misalignment-sigma, not both")
        sigma = misalignment_for_damping(args.damping)
    cfg = ExperimentConfig(
        state=state,
        settings=settings,
        n_pairs=args.pairs,
        efficiency=args.efficiency,
        misalignment_sigma=sigma if sigma is not None else 0.0,
        seed=args.seed,
    )
    report = run_experiment(cfg)
    counts = [{"pair": label, **vars(c)} for label, c in zip(PAIR_LABELS, report.counts)]
    fields = [
        ("seed", cfg.seed, []),
        ("n_pairs", cfg.n_pairs, []),
        ("efficiency", cfg.efficiency, []),
        ("misalignment_sigma", cfg.misalignment_sigma, []),
        ("state", {"c1": c1, "c2": c2}, []),
        ("settings", _settings_report(settings)[0], []),
        ("counts", counts, []),
        *_estimate_fields(report.s),
        (None, None, [f"|S| = {abs(report.s.value):.6f}"]),
    ]
    header = (f"agr pairs={cfg.n_pairs} efficiency={cfg.efficiency:.9g} "
              f"misalignment_sigma={cfg.misalignment_sigma:.9g} seed={cfg.seed}")
    # One CSV row per orientation pair: its coincidence counts and its E estimate.
    rows = [[*counts[0], "E", "stderr"]]
    rows += [[*c.values(), e.value, e.std_error] for c, e in zip(counts, report.s.correlations())]
    if args.format == "text" and args.out:  # the file keeps the JSON report, stdout the text
        _emit("json", args.out, header, fields)
    _emit(args.format, None if args.format == "text" else args.out, header, fields, rows)
    return 0


# ---------------------------------------------------------------- selftest


def cmd_selftest(args: argparse.Namespace) -> int:
    del args
    rows = []  # (name, ok, detail) per check
    rng = np.random.default_rng(20260809)

    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.05, math.pi / 2 - 0.05)
        c1, c2 = math.cos(t), math.sin(t) * rng.choice([-1.0, 1.0])
        s = chsh_value(canonical_state(c1, c2), gisin_settings(c1, c2))
        worst = max(worst, abs(s - max_violation(c1, c2)))
    rows.append(("gisin-max-violation", worst < 1e-9, f"(max |diff| = {worst:.3g})"))

    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(0.0, math.pi / 2)
        c1, c2 = math.cos(t), math.sin(t)
        a = make_unit_vector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        b = make_unit_vector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        state = canonical_state(c1, c2)
        worst = max(worst, abs(correlation_closed(c1, c2, a, b) - correlation_matrix(state, a, b)))
    rows.append(("closed-vs-matrix", worst < 1e-12, f"(max |diff| = {worst:.3g})"))

    settings = gisin_settings(SINGLET_C1, SINGLET_C1)
    for name, model in BUILTIN_MODELS.items():
        est = chsh_lhv(model(), settings, 200_000, 7)
        rows.append((f"lhv-bound-{name}", est.value <= 2.0,
                     f"(S = {est.value:.4f} +- {est.std_error:.4f})"))

    e = estimate_correlation(
        BUILTIN_MODELS["bell-sign"](),
        UnitVector3(0, 0, 1),
        make_unit_vector(math.pi / 2, 0.0),
        200_000,
        11,
    )
    rows.append((
        "bell-sign-analytic",
        abs(e.value - 0.0) <= 5.0 * e.std_error,
        f"(E = {e.value:.4f} +- {e.std_error:.4f})",
    ))

    cfg = ExperimentConfig(
        state=canonical_state(SINGLET_C1, -SINGLET_C1),
        settings=_xz_settings(**{key: math.radians(deg) for key, deg in AGR_ANGLES_DEG.items()}),
        n_pairs=200_000,
        seed=3,
    )
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    rows.append(("agr-determinism", r1.counts == r2.counts, ""))
    rows.append((
        "agr-ideal-s",
        abs(abs(r1.s.value) - 2.0 * math.sqrt(2.0)) <= 5.0 * r1.s.std_error,
        f"(|S| = {abs(r1.s.value):.4f} +- {r1.s.std_error:.4f})",
    ))

    for name, ok, detail in rows:
        print(f"PASS {name}" if ok else f"FAIL {name} {detail}")
    return 0 if all(ok for _, ok, _ in rows) else 1


# ---------------------------------------------------------------- parser


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Lists each option's default in --help; None marks an option that is simply not given."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def _add_angle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radians", action="store_true", help=RADIANS_HELP)
    for name in ("alpha", "alpha-prime", "beta", "beta-prime"):
        p.add_argument(f"--{name}", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="belllab", description=__doc__)
    parser.add_argument("--version", action="version", version=VERSION_TAG)
    sub = parser.add_subparsers(dest="command", required=True)
    seed_help = "random seed (default: the BELLLAB_SEED environment variable, else 0)"

    def command(name, func, summary, formats):
        p = sub.add_parser(name, help=summary, formatter_class=_HelpFormatter)
        p.set_defaults(func=func, subparser=p)
        p.add_argument("--config", help="flat key = value option file (flags win)")
        p.add_argument("--format", choices=formats, default=formats[0], help="report format")
        p.add_argument("--out", help="write the report/grid to this path")
        return p

    p = command("chsh", cmd_chsh, "quantum CHSH value for a canonical state", ("text", "json"))
    p.add_argument("--c1", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--gisin", action="store_true", help="use the maximizing analyzer quadruple")
    _add_angle_flags(p)

    p = command("scan", cmd_scan, "violation-region grid scan (CSV/JSON export)", ("csv", "json"))
    p.add_argument("--plane", choices=tuple(pl.value for pl in Plane), default="xy",
                   help="plane of the four analyzer orientations")
    p.add_argument("--concurrence", type=float)
    p.add_argument("--sign", type=int, choices=(-1, 1),
                   help="sign of c1*c2 when using --concurrence (default: 1)")
    p.add_argument("--c1", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--grid", type=int, default=512, help=f"cells per axis, at most {MAX_GRID_N}")

    p = command("lhv", cmd_lhv, "Monte Carlo CHSH for a local hidden-variable model",
                ("text", "json"))
    p.add_argument("--model", choices=tuple(sorted(BUILTIN_MODELS)), default="bell-sign",
                   help="local hidden-variable model")
    p.add_argument("--samples", type=int, default=100_000, help="hidden-variable draws shared by the four orientation pairs")
    p.add_argument("--gisin-for", nargs=2, type=float, metavar=("C1", "C2"),
                   help="use the maximizing quadruple for these coefficients")
    p.add_argument("--seed", type=int, help=seed_help)
    _add_angle_flags(p)

    p = command("agr", cmd_agr, "simulated coincidence-counting experiment",
                ("text", "json", "csv"))
    p.add_argument("--c1", type=float, default=SINGLET_C1, help="coefficient of |01>")
    p.add_argument("--c2", type=float, default=-SINGLET_C1, help="coefficient of |10>")
    for key, deg in AGR_ANGLES_DEG.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=float,
                       help=f"polar angle in the xz plane (default: {deg:g} deg)")
    p.add_argument("--pairs", type=int, default=1_000_000, help="pairs per orientation pair")
    p.add_argument("--efficiency", type=float, default=1.0, help="per-side detection efficiency")
    p.add_argument("--damping", type=float,
                   help="target mean correlation damping (sets the misalignment width)")
    p.add_argument("--misalignment-sigma", type=float, help="pointing-error width in radians")
    p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--radians", action="store_true", help=RADIANS_HELP)

    p = sub.add_parser("selftest", help="quick end-to-end sanity checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args.subparser.set_defaults(**config_defaults(args.subparser, args.config, args.command))
            args = parser.parse_args(argv)
        if getattr(args, "seed", 0) is None:  # neither flag nor config
            try:
                args.seed = int(os.environ.get("BELLLAB_SEED") or 0)
            except ValueError as exc:
                raise ValueError(f"BELLLAB_SEED: {exc}") from None
        return args.func(args)
    except ValueError as exc:
        print(f"belllab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"belllab: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
