"""Command-line interface.

One subcommand per pipeline stage:

    validate   check the positivity-pattern assumptions, name violations
    spectrum   tabulate Lambda, Lambda', Lambda'' over a theta grid
    rate       evaluate the large deviations rate at one or more means
    constants  compute the bound constants K, L, sigma2 with diagnostics
    bound      evaluate Chernoff and Hoeffding bounds (plus a two-sided
               bound when an interval is given)
    simulate   Monte Carlo tail estimate side by side with its bound
    ergodic    exact finite-n rates against the uniform log(K)/n bound

Reports embed the model file's SHA-256, the tool version and all
effective parameters, and identical invocations produce byte-identical
output.  Formats: aligned text (default), ``machine`` (JSON), and ``csv``
for the grid-valued commands (spectrum, rate, ergodic).

Exit status: 0 on success, 1 on validation/assumption/usage failure,
2 on numerical failure.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import assumptions as _assumptions
from . import bounds as _bounds
from . import family as _family
from . import sim as _sim
from .errors import (AssumptionError, ChainboundsError, DomainError,
                     ModelFormatError)
from .model import _read, parse_model

GRID_COMMANDS = ("spectrum", "rate", "ergodic")

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(f"cli: {message}")


def _scalar_float(text, name: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise DomainError(
            f"cli: --{name} expects a real number, got {text!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"cli: --{name} must be finite, got {text!r}")
    return value


def _scalar_int(text, name: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise DomainError(
            f"cli: --{name} expects an integer, got {text!r}") from None


def _parse_real_grid(text: str) -> list[float]:
    text = text.strip()
    if "," in text:
        return [_scalar_float(x, "grid entry") for x in text.split(",")]
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(
                f"cli: real grids need lo:hi:count, got {text!r}")
        lo = _scalar_float(parts[0], "grid lo")
        hi = _scalar_float(parts[1], "grid hi")
        count = _scalar_int(parts[2], "grid count")
        if count < 1:
            raise DomainError(f"cli: grid count must be >= 1, got {count}")
        return [float(x) for x in np.linspace(lo, hi, count)]
    return [_scalar_float(text, "grid")]


def _parse_int_grid(text: str) -> list[int]:
    text = text.strip()
    if "," in text:
        return [_scalar_int(x, "grid entry") for x in text.split(",")]
    if ":" in text:
        parts = [_scalar_int(x, "grid part") for x in text.split(":")]
        if len(parts) == 2:
            lo, hi = parts
            if hi < lo:
                raise DomainError(f"cli: empty range {text!r}")
            return list(range(lo, hi + 1))
        if len(parts) == 3:
            lo, hi, count = parts
            if count < 1:
                raise DomainError(f"cli: grid count must be >= 1, got {count}")
            return list(dict.fromkeys(int(round(x))
                                      for x in np.linspace(lo, hi, count)))
        raise DomainError(f"cli: cannot parse integer grid {text!r}")
    return [_scalar_int(text, "grid")]


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"cli: interval needs LO,HI, got {text!r}")
    return (_scalar_float(parts[0], "interval lo"),
            _scalar_float(parts[1], "interval hi"))


def _fmt(value) -> str:
    """Deterministic scalar rendering for text and CSV output."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    return value


def _render(header: dict, sections: list, fmt: str) -> str:
    """Render (header, [(title, payload), ...]) in the requested format.

    A payload is either a dict of scalars or a (columns, rows) table.
    """
    if fmt == "machine":
        doc = dict(header)
        for title, payload in sections:
            if isinstance(payload, dict):
                doc[title] = payload
            else:
                columns, rows = payload
                doc[title] = [dict(zip(columns, row)) for row in rows]
        return json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"

    if fmt == "csv":
        # the parser offers csv only to the grid commands: one table each
        buf = io.StringIO()
        for key in sorted(header):
            buf.write(f"# {key}={_scalar_header(header[key])}\n")
        columns, rows = sections[0][1]
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
        return buf.getvalue()

    lines = []
    for key in sorted(header):
        lines.append(f"{key} = {_scalar_header(header[key])}")
    for title, payload in sections:
        lines.append("")
        lines.append(f"[{title}]")
        if isinstance(payload, dict):
            for key, value in payload.items():
                lines.append(f"{key} = {_text_value(value)}")
        else:
            columns, rows = payload
            cells = [[_fmt(x) for x in row] for row in rows]
            widths = [max(len(c), *(len(r[i]) for r in cells)) if cells
                      else len(c) for i, c in enumerate(columns)]
            lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
            for row in cells:
                lines.append("  ".join(x.ljust(w) for x, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _scalar_header(value) -> str:
    if isinstance(value, dict):
        inner = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
        return inner
    return _fmt(value)


def _text_value(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{k}: {_fmt(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return _fmt(value)


def _report_dict(report: _bounds.BoundReport) -> dict:
    return dict(asdict(report), clipped=report.clipped)


def _cmd_validate(model, params):
    report = _assumptions.validate(model)
    payload = asdict(report)
    # text output renders each violation as a dict, with its states a list
    payload["violations"] = [dict(v, states=list(v["states"]))
                             for v in payload["violations"]]
    status = 0 if report.all_ok else 1
    return status, [("assumptions", payload)]


def _cmd_spectrum(model, params):
    grid = _parse_real_grid(params["theta"])
    curve = _family.spectral_curve(model, grid)
    rows = list(zip(curve.grid, curve.Lambda, curve.Lambda1, curve.Lambda2))
    return 0, [("spectrum", (("theta", "Lambda", "Lambda1", "Lambda2"), rows))]


def _cmd_rate(model, params):
    mus = _parse_real_grid(params["mu"])
    side = params["side"]
    rows = []
    for mu in mus:
        point = _family.rate_function(model, mu, side)
        rows.append((point.mu, point.theta_mu, point.value))
    return 0, [("rate", (("mu", "theta_mu", "value"), rows))]


def _cmd_constants(model, params):
    consts = _bounds.constants(model, params["side"])
    return 0, [("constants", asdict(consts))]


def _cmd_bound(model, params):
    side = params["side"]
    n = _scalar_int(params["n"], "n")
    mu = _scalar_float(params["mu"], "mu")
    report = _bounds.chernoff_bound(model, n, mu, side)
    consts = _bounds.constants(model, side)
    sections = [
        ("constants", asdict(consts)),
        ("bound", _report_dict(report)),
    ]
    if params.get("interval") is not None:
        interval = _parse_interval(params["interval"])
        value = _bounds.two_sided_bound(model, n, interval)
        sections.append(("two_sided", {
            "interval_lo": interval[0],
            "interval_hi": interval[1],
            "n": n,
            "value": value,
        }))
    return 0, sections


def _cmd_simulate(model, params):
    side = params["side"]
    n = _scalar_int(params["n"], "n")
    mu = _scalar_float(params["mu"], "mu")
    estimate = _sim.empirical_tail(model, n, mu, side,
                                   trials=_scalar_int(params["trials"], "trials"),
                                   seed=_scalar_int(params["seed"], "seed"))
    report = _bounds.chernoff_bound(model, n, mu, side)
    consistent = estimate.ci_low <= report.chernoff
    return 0, [
        ("estimate", asdict(estimate)),
        ("bound", _report_dict(report)),
        ("consistency", {"ci_low_below_chernoff": consistent}),
    ]


def _cmd_ergodic(model, params):
    thetas = _parse_real_grid(params["theta"])
    ns = _parse_int_grid(params["n"])
    rows = [(c.theta, c.n, c.Lambda_n, c.Lambda, c.gap, c.bound, c.passed)
            for theta in thetas for c in _sim.ergodic_checks(model, theta, ns)]
    columns = ("theta", "n", "Lambda_n", "Lambda", "gap", "bound", "pass")
    return 0, [("ergodic", (columns, rows))]


_COMMANDS = {
    "validate": _cmd_validate,
    "spectrum": _cmd_spectrum,
    "rate": _cmd_rate,
    "constants": _cmd_constants,
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "ergodic": _cmd_ergodic,
}


def run(command: str, model_path: str, params: dict) -> tuple[int, str]:
    """Execute one invocation; returns (exit status, rendered report).

    ``params`` holds every option of the command as `main`'s parser
    returns it; the parser alone checks the command, the required options
    and the format.
    """
    raw, text = _read(model_path)
    model = parse_model(text)

    header = {
        "model_sha256": hashlib.sha256(raw).hexdigest(),
        "version": __version__,
        "command": command,
        "parameters": {k: v for k, v in sorted(params.items())
                       if v is not None and k != "out"},
    }
    status, sections = _COMMANDS[command](model, params)
    return status, _render(header, sections, params["format"])


def _build_parser() -> _Parser:
    parser = _Parser(prog="chainbounds", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="path to a model file")
        formats = ("text", "machine") + (("csv",) if name in GRID_COMMANDS
                                         else ())
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write the report here")
        if name in ("rate", "constants", "bound", "simulate"):
            p.add_argument("--side", choices=("upper", "lower"),
                           default="upper")
        if name in ("rate", "bound", "simulate"):
            p.add_argument("--mu", required=True)
        if name in ("bound", "simulate", "ergodic"):
            p.add_argument("--n", required=True)
        if name in ("spectrum", "ergodic"):
            default = "-4:4:81" if name == "spectrum" else None
            p.add_argument("--theta", default=default,
                           required=(name == "ergodic"))
        if name == "bound":
            p.add_argument("--interval", default=None, help="LO,HI")
        if name == "simulate":
            p.add_argument("--trials", default="10000")
            p.add_argument("--seed", default="0")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        params = {k: v for k, v in vars(args).items()
                  if k not in ("command", "model")}
        status, report = run(args.command, args.model, params)
    except (ModelFormatError, AssumptionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ChainboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            print(f"error: cli: cannot write {out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
