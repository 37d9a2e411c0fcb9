"""Command-line surface: CSV data and JSON configs in, reports out.

Every subcommand prints one JSON object to stdout that embeds the fully
resolved options (defaults included), so a run can be reproduced from its own
output.  Bad inputs exit 2 with a one-line ``config error``, raised where they
are parsed; a numeric failure exits 1 with one line naming the error's class.
"""

import argparse
import functools
import json
import sys

from .cd_core import (
    central_interval,
    load_cd_csv,
    read_table,
    save_cd_csv,
)
from .compare import (
    bahadur_slopes,
    dominance_to_json,
    dump_slopes,
    paired_compare,
)
from .errors import (
    CdkitError,
    ConfigError,
    NonintegrableCdError,
    PairingError,
    ParameterDomainError,
)
from .inference import NullRegion, cd_mean, cd_median, cd_mode, support_report
from .multivariate import (
    DepthSpec,
    _check_level,
    centrality,
    centrality_fn,
    depth,
    load_cloud_csv,
    project,
)
from .simlab import (
    _DEFAULT_LEVELS,
    _EXACT_CDS,
    calibrate,
    dump_u_values,
    generator_from_config,
    generator_to_config,
    report_to_json,
)

_LEVELS = (0.90, 0.95, 0.99)


# ---------------------------------------------------------------------------
# input plumbing

def _read_matrix(path):
    return read_table(path)[1]


def _parse(what, parse, text):
    """parse(text); input it cannot parse is a ConfigError naming ``what``."""
    try:
        return parse(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _load_config(path) -> dict:
    with open(path) as fh:
        return _parse(path, json.load, fh)


def _parse_sigma(text: str):
    if text == "unknown":
        return None
    value = _parse("--sigma", float, text[len("known="):]) if text.startswith("known=") else 0.0
    if not value > 0.0:
        raise ConfigError(f"--sigma must be 'unknown' or 'known=<positive value>', got {text!r}")
    return value


def _parse_vector(text: str) -> list:
    return _parse(f"expected comma-separated numbers, got {text!r}",
                  lambda t: [float(tok) for tok in t.split(",") if tok.strip() != ""], text)


# ---------------------------------------------------------------------------
# subcommand handlers

def _point_estimates(cd) -> dict:
    mode = None if cd.kind == "sample" else cd_mode(cd)  # atoms have no density
    try:
        mean = cd_mean(cd)
    except NonintegrableCdError:  # a CD with tails too heavy for a mean
        mean = None
    return {"median": cd_median(cd), "mean": mean, "mode": mode}


def _cmd_construct(args) -> dict:
    sigma = _parse_sigma(args.sigma)
    if args.model != "normal-mean" and args.sigma != "unknown":
        raise ConfigError("--sigma applies to the normal-mean model only")
    data = _read_matrix(args.data)
    paired = args.model == "correlation"
    if data.shape[1] != 1 + paired:
        raise ConfigError(f"{args.model} model needs a {('one', 'two')[paired]}-column data file")
    model = {"normal-mean": f"normal-mean-{'unknown' if sigma is None else 'known'}-sigma",
             "correlation": "bivariate-normal-correlation"}.get(args.model, args.model)
    cd = _EXACT_CDS[model](data, sigma)
    # the CD the lab's pivot recipe calibrates; a family CD reloads from its file as itself
    save_cd_csv(cd, args.out)
    return {
        "command": "construct",
        "config": {"model": args.model, "sigma": args.sigma, "data": args.data,
                   "out": args.out},
        "cd_file": args.out,
        "estimates": _point_estimates(cd),
        "intervals": {f"{lv:.2f}": list(central_interval(cd, lv)) for lv in _LEVELS},
    }


def _cmd_estimate(args) -> dict:
    cd = load_cd_csv(args.cd)
    return {
        "command": "estimate",
        "config": {"cd": args.cd},
        "estimates": _point_estimates(cd),
    }


def _cmd_test(args) -> dict:
    cd = load_cd_csv(args.cd)
    region = _parse("--region", NullRegion.from_json, args.region)
    return {
        "command": "test",
        "config": {"cd": args.cd, "region": json.loads(args.region)},
        "report": support_report(cd, region).to_dict(),
    }


def _cmd_calibrate(args) -> dict:
    obj = _load_config(args.config)
    gen = generator_from_config(obj)
    reps = _parse("reps", int, obj.get("reps", 1000))
    levels = _parse("levels", lambda v: tuple(map(float, v)), obj.get("levels", _DEFAULT_LEVELS))
    report = calibrate(gen, reps, levels)
    body = json.loads(report_to_json(report))
    body.pop("u_values", None)  # the raw array ships via --u-values only
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(body, sort_keys=True))
    if args.u_values:
        dump_u_values(report, args.u_values)
    return {
        "command": "calibrate",
        "config": {"config_file": args.config, "generator": generator_to_config(gen),
                   "reps": reps, "levels": list(levels), "out": args.out,
                   "u_values": args.u_values},
        "report": body,
    }


def _cmd_compare(args) -> dict:
    gen1 = generator_from_config(_load_config(args.config1))
    gen2 = generator_from_config(_load_config(args.config2))
    theta0 = gen1.theta0 if args.theta0 is None else float(args.theta0)
    eps = _parse_vector(args.eps)
    result = paired_compare(gen1, gen2, theta0, eps, args.reps)
    report = result.dominance
    dominance_path = f"{args.out_prefix}-dominance.json"
    with open(dominance_path, "w") as fh:
        fh.write(dominance_to_json(report))
    slope_paths = []
    for tag, gen, cd in zip("12", (gen1, gen2), result.first_cds):
        rows = [(gen.n, e, *bahadur_slopes(cd, theta0, e, gen.n)) for e in eps]
        path = f"{args.out_prefix}-slopes-{tag}.csv"
        dump_slopes(path, rows)
        slope_paths.append(path)
    return {
        "command": "compare",
        "config": {"config1": args.config1, "config2": args.config2,
                   "theta0": theta0, "eps": eps, "reps": args.reps,
                   "out_prefix": args.out_prefix},
        "verdict": report.verdict,
        "dispersion": {f"gen{i + 1}": {"mean": d.mean, "se": d.se}
                       for i, d in enumerate(result.dispersion)},
        "risk": {f"gen{i + 1}": {"mean": r.mean, "se": r.se}
                 for i, r in enumerate(result.risk)},
        "artifacts": [dominance_path, *slope_paths],
    }


def _mv_config(args, **extra) -> dict:
    return {"cloud": args.cloud, "kind": args.kind, "directions": args.directions, **extra}


def _cmd_mv(args) -> dict:
    flag = "axis" if args.action == "project" else "point"
    if getattr(args, flag) is None:
        raise ConfigError(f"mv {args.action} needs --{flag}")
    # every option is checked before the cloud is read
    if args.action == "project":
        axis = _parse_vector(args.axis)
    else:
        point = _parse_vector(args.point)
        spec = DepthSpec(args.kind, directions=args.directions)
    if args.action == "coverage":
        _check_level(args.level)
    mcd = load_cloud_csv(args.cloud)
    if args.action == "project":
        cd = project(mcd, axis)
        if args.out:
            save_cd_csv(cd, args.out)
        return {
            "command": "mv", "action": "project",
            "config": {"cloud": args.cloud, "axis": axis, "out": args.out},
            "estimates": {"median": cd_median(cd)},
            "intervals": {f"{lv:.2f}": list(central_interval(cd, lv))
                          for lv in _LEVELS},
        }
    if args.action == "depth":
        value = depth(spec, mcd.cloud, point)
        return {"command": "mv", "action": "depth",
                "config": _mv_config(args, point=point), "depth": value}
    cf = centrality_fn(spec, mcd.cloud)
    if args.action == "centrality":
        return {"command": "mv", "action": "centrality",
                "config": _mv_config(args, point=point),
                "centrality": centrality(cf, point)}
    value = centrality(cf, point)
    return {"command": "mv", "action": "coverage",
            "config": _mv_config(args, point=point, level=args.level),
            "centrality": value, "inside": value >= 1.0 - args.level}


# ---------------------------------------------------------------------------
# parser and dispatch

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="cdkit", description="Confidence distribution toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a CD from a data file")
    p.add_argument("--model", required=True,
                   choices=["normal-mean", "normal-variance", "correlation",
                            "exponential-rate"])
    p.add_argument("--sigma", default="unknown",
                   help="'unknown' or 'known=<value>' (normal-mean only)")
    p.add_argument("--data", required=True, help="CSV of observations")
    p.add_argument("--out", default="cd.csv", help="CD file to write")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("estimate", help="point estimates from a CD file")
    p.add_argument("--cd", required=True)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("test", help="support of a null region under a CD")
    p.add_argument("--cd", required=True)
    p.add_argument("--region", required=True,
                   help='JSON like {"intervals": [[null, 0.8], [1.25, null]]}')
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("calibrate", help="uniformity and coverage experiment")
    p.add_argument("--config", required=True, help="generator config JSON file")
    p.add_argument("--out", default=None, help="write the report JSON here too")
    p.add_argument("--u-values", default=None, help="CSV of per-replicate u values")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("compare", help="paired precision comparison of two generators")
    p.add_argument("--config1", required=True)
    p.add_argument("--config2", required=True)
    p.add_argument("--theta0", default=None, type=float,
                   help="defaults to generator 1's theta0")
    p.add_argument("--eps", default="0.1,0.5", help="comma-separated eps grid")
    p.add_argument("--reps", default=2000, type=int)
    p.add_argument("--out-prefix", default="compare")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("mv", help="multivariate cloud operations")
    p.add_argument("action", choices=["project", "depth", "centrality", "coverage"])
    p.add_argument("--cloud", required=True, help="cloud CSV file")
    p.add_argument("--axis", default=None, help="projection vector (project)")
    p.add_argument("--point", default=None, help="query point (depth/centrality/coverage)")
    p.add_argument("--kind", default="mahalanobis", choices=["mahalanobis", "tukey"])
    p.add_argument("--directions", default=360, type=int)
    p.add_argument("--level", default=0.9, type=float, help="region level (coverage)")
    p.add_argument("--out", default=None, help="projected CD file (project)")
    p.set_defaults(handler=_cmd_mv)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
    except (ConfigError, PairingError, ParameterDomainError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CdkitError, ValueError, ArithmeticError) as exc:
        # a numeric failure, after the input parsed; keep its name for the caller
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
