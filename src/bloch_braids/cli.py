"""Command-line front end.

Subcommands map one-to-one onto the analysis pipelines:

  bands          track complex bands over one zone period
  braid          extract the braid word and its topological index
  eps            locate momentum-space exceptional points
  winding        spectral winding number about a reference energy
  phase-diagram  classify a 2-parameter plane
  riemann        track eigenvalue loops of H(z) on a circle |z| = r
  from-config    run a saved configuration file

Models are JSON documents (see README for the schema). Each command's
options and their defaults are declared once, in ``_OPTIONS``. Every
subcommand accepts ``--dump-config PATH`` to save a self-contained
configuration that ``from-config`` re-runs identically; output files are
byte-deterministic for a given configuration. Exit status: 0 success, 1
invalid usage or configuration (one ``error:`` line, nothing written), 2
numerical failure (degenerate point, non-convergence). The environment
variable BLOCH_BRAIDS_THREADS caps sweep parallelism (0 or unset = automatic).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

from . import io as bio
from .braid import cyclic_canonical, exponent_sum, extract_braid_word, word_to_text
from .errors import NumericalFailure
from .models import ModelSpec, _read_json, _require_finite
from .spectrum import riemann_loop, track_bands
from .topology import (DEGENERATE, dimer_ep_zplane, find_eps_k, phase_diagram,
                       total_braid_index, winding_number)

# Each command's options and their defaults. The type of a default is the
# option's type (a float option takes any JSON number, an int option only a
# JSON integer); None marks a required axis, given as name:start:stop:resolution.
_OPTIONS = {
    "bands": {"k0": 0.0, "samples": 512},
    "braid": {"k0": 0.0, "samples": 512},
    "eps": {},
    "winding": {"eref_real": 0.0, "eref_imag": 0.0, "samples": 1024},
    "phase-diagram": {"axis1": None, "axis2": None, "k0": math.pi / 4, "samples": 512},
    "riemann": {"r": 1.0, "theta0": 0.0, "samples": 512},
}
_CSV_COMMANDS = ("bands", "phase-diagram", "riemann")     # the ones with --format csv|json
# the keys of a config document, read as _read_json reads a table
_CONFIG = {"command": str, "model": dict, "options": {}, "out": str | None, "format": "csv"}
# help texts of the subcommands, and as "command --flag" of the flags that have one
_HELP = {
    "bands": "track complex bands over one zone period",
    "bands --k0": "base momentum", "bands --samples": "initial sample count",
    "braid": "extract the braid word and index",
    "eps": "locate momentum-space exceptional points",
    "winding": "spectral winding number about a reference energy",
    "winding --eref": "reference energy, e.g. '0' or '-0.7,0.0'",
    "phase-diagram": "classify a 2-parameter plane",
    "riemann": "eigenvalue loops of H(z) on a circle |z| = r",
    "riemann --r": "circle radius",
}


@dataclass
class RunConfig:
    """One fully-specified run: command, model, and command options."""

    command: str
    model: dict
    options: dict = field(default_factory=dict)
    out: str | None = None
    format: str = "csv"

    def to_json_dict(self) -> dict:
        return {"command": self.command, "model": self.model,
                "options": self.options, "out": self.out, "format": self.format}

    @staticmethod
    def from_json_dict(doc: dict) -> "RunConfig":
        config = _read_json(doc, _CONFIG, "config")
        if config["command"] not in _OPTIONS:
            raise ValueError(f"config command must be one of {', '.join(_OPTIONS)}, "
                             f"got {config['command']!r}")
        if config["format"] not in ("csv", "json"):
            raise ValueError(f"config format must be csv or json, got {config['format']!r}")
        return RunConfig(**{**config, "options": dict(config["options"])})

    def validate(self) -> dict:
        """Check the options against the command's table; return them with the
        defaults filled in, floats as floats and axes parsed."""
        what = f"{self.command} option"
        resolved = _read_json(self.options, {key: str if default is None else default
                                             for key, default in _OPTIONS[self.command].items()},
                              what)
        resolved = {key: _parse_axis(f"{what} {key}", v) if isinstance(v, str) else v
                    for key, v in resolved.items()}
        _require_finite(**{f"{what} {key}": v for key, v in resolved.items()
                           if isinstance(v, float)})
        if "samples" in resolved and resolved["samples"] < 64:
            raise ValueError(f"{what} samples must be at least 64, got {resolved['samples']}")
        if "r" in resolved and resolved["r"] <= 0:
            raise ValueError(f"{what} r must be positive, got {resolved['r']!r}")
        return resolved


def _parse_axis(what: str, text: str) -> tuple[str, float, float, int]:
    try:
        name, start, stop, res = text.split(":")
        return (name, float(start), float(stop), int(res))
    except ValueError:
        raise ValueError(f"{what} must be name:start:stop:resolution, got {text!r}") from None


def _write(path: str | None, text: str) -> None:
    if path:
        bio.write_text(path, text)


def _run_bands(config: RunConfig, spec: ModelSpec, opt: dict) -> str:
    traj = track_bands(spec, opt["k0"], opt["samples"])
    if config.format == "csv":
        _write(config.out, bio.trajectory_to_csv(traj))
    else:
        _write(config.out, bio.dumps_json(bio.trajectory_to_json_dict(traj)))
    return f"closure: {traj.closure.cycle_str()}"


def _run_braid(config: RunConfig, spec: ModelSpec, opt: dict) -> str:
    traj = track_bands(spec, opt["k0"], opt["samples"])
    word = extract_braid_word(traj)
    index = total_braid_index(spec, k0=opt["k0"])
    doc = {
        "word": word_to_text(word),
        "word_canonical": word_to_text(cyclic_canonical(word)),
        "exponent_sum": exponent_sum(word),
        "nu": index.nu,
        "references": [[r.real, r.imag] for r in index.references],
        "closure_permutation": list(traj.closure.image),
        "band_mapping": traj.closure.band_mapping_str(),
    }
    _write(config.out, bio.dumps_json(doc))
    return f"word: {word_to_text(word)}, nu: {index.nu}"


def _run_eps(config: RunConfig, spec: ModelSpec, opt: dict) -> str:
    eps = find_eps_k(spec)
    _write(config.out, bio.dumps_json(bio.eps_to_json_dict(spec, eps)))
    ks = ", ".join(f"{ep.k:.6f}" for ep in eps)
    return f"eps: {len(eps)}" + (f" at k = {ks}" if eps else "")


def _run_winding(config: RunConfig, spec: ModelSpec, opt: dict) -> str:
    e_ref = complex(opt["eref_real"], opt["eref_imag"])
    result = winding_number(spec, e_ref, opt["samples"])
    doc = {"nu": result.nu, "raw": result.raw, "residual": result.residual,
           "reference_energy": [e_ref.real, e_ref.imag], "samples": result.samples}
    _write(config.out, bio.dumps_json(doc))
    return f"nu: {result.nu} (residual {result.residual:.3e})"


def _run_phase_diagram(config: RunConfig, spec: ModelSpec, opt: dict) -> str:
    diagram = phase_diagram(spec, opt["axis1"], opt["axis2"], k0=opt["k0"],
                            samples=opt["samples"])
    if config.format == "csv":
        _write(config.out, bio.phase_diagram_to_csv(diagram))
    else:
        _write(config.out, bio.dumps_json(bio.phase_diagram_to_json_dict(diagram)))
    words = [word for word, _, _ in diagram.labels]
    n_deg = sum(int((diagram.ids == k).sum()) for k, w in enumerate(words) if w == DEGENERATE)
    phases = len(set(words) - {DEGENERATE})
    return f"cells: {diagram.ids.size}, degenerate: {n_deg}, phases: {phases}"


def _run_riemann(config: RunConfig, spec: ModelSpec, opt: dict) -> str:
    traj = riemann_loop(spec, opt["r"], opt["samples"], opt["theta0"])
    zplane = []
    if spec.kind == "dimer" and spec.params.alpha * spec.params.beta != 0:
        zplane = dimer_ep_zplane(spec.params)
    if config.format == "csv":
        _write(config.out, bio.trajectory_to_csv(traj))
        if config.out and zplane:
            bio.write_text(config.out + ".eps.json", bio.dumps_json(
                {"z_plane_eps": [[z.real, z.imag] for z in zplane]}))
    else:
        doc = bio.trajectory_to_json_dict(traj)
        doc["z_plane_eps"] = [[z.real, z.imag] for z in zplane]
        _write(config.out, bio.dumps_json(doc))
    inside = sum(1 for z in zplane if abs(z) < 1)
    return f"closure: {traj.closure.cycle_str()}, z-plane eps inside zone: {inside}"


_RUNNERS = {
    "bands": _run_bands,
    "braid": _run_braid,
    "eps": _run_eps,
    "winding": _run_winding,
    "phase-diagram": _run_phase_diagram,
    "riemann": _run_riemann,
}


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    try:
        spec = ModelSpec.from_json_dict(config.model)
        opt = config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        summary = _RUNNERS[config.command](config, spec, opt)
    except NumericalFailure as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


def _add_common(sub: argparse.ArgumentParser, with_format: bool = True) -> None:
    sub.add_argument("--model", required=True, help="path to a model JSON document")
    sub.add_argument("--out", default=None, help="output file path")
    if with_format:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--dump-config", default=None, metavar="PATH",
                     help="also save this run as a re-runnable config file")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit status 1, the status of invalid usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="bloch-braids",
        description="Braiding of complex Bloch bands in 1D gain-loss lattices.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = subs.add_parser(command, help=_HELP[command])
        _add_common(p, with_format=command in _CSV_COMMANDS)
        for key, default in options.items():
            if key == "eref_real":      # --eref RE[,IM] fills eref_real and eref_imag
                p.add_argument("--eref", metavar="RE[,IM]", help=_HELP["winding --eref"])
            elif key != "eref_imag":
                axis = default is None
                p.add_argument(f"--{key}", type=str if axis else type(default),
                               default=default, required=axis,
                               metavar="NAME:START:STOP:RES" if axis else None,
                               help=_HELP.get(f"{command} --{key}"))
    p = subs.add_parser("from-config", help="run a saved configuration file")
    p.add_argument("config", help="path to a config JSON written by --dump-config")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    with open(args.model, encoding="utf-8") as fh:
        model_doc = json.load(fh)
    options = {key: getattr(args, key, default)
               for key, default in _OPTIONS[args.command].items()}
    if getattr(args, "eref", None) is not None:
        real, *imag = args.eref.split(",")
        if len(imag) > 1:
            raise ValueError(f"--eref takes RE or RE,IM, got {args.eref!r}")
        options["eref_real"] = float(real)
        if imag:
            options["eref_imag"] = float(imag[0])
    return RunConfig(args.command, model_doc, options, args.out, getattr(args, "format", "json"))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "from-config":
            with open(args.config, encoding="utf-8") as fh:
                config = RunConfig.from_json_dict(json.load(fh))
        else:
            config = _config_from_args(args)
    except (OSError, ValueError) as exc:     # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "dump_config", None):
        bio.write_text(args.dump_config, bio.dumps_json(config.to_json_dict()))
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
