"""Command-line front end.

Subcommands map one-to-one onto the analysis pipelines:

  bands          track complex bands over one zone period
  braid          extract the braid word and its topological index
  eps            locate momentum-space exceptional points
  winding        spectral winding number about a reference energy
  phase-diagram  classify a 2-parameter plane
  riemann        track eigenvalue loops of H(z) on a circle |z| = r
  from-config    run a saved configuration file

Models are JSON documents (see README for the schema). Every subcommand
accepts ``--dump-config PATH`` to save a self-contained configuration that
``from-config`` re-runs identically; output files are byte-deterministic
for a given configuration. Exit status: 0 success, 1 invalid usage or
configuration, 2 numerical failure (degenerate point, non-convergence).
The environment variable BLOCH_BRAIDS_THREADS caps sweep parallelism
(0 or unset = automatic).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import io as bio
from .braid import cyclic_canonical, exponent_sum, extract_braid_word, word_to_text
from .errors import NumericalFailure
from .models import ModelSpec, _require_finite
from .spectrum import riemann_loop, track_bands
from .topology import (dimer_ep_zplane, find_eps_k, phase_diagram, total_braid_index,
                       winding_number)

_COMMANDS = ("bands", "braid", "eps", "winding", "phase-diagram", "riemann")


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
        command = doc.get("command")
        if command not in _COMMANDS:
            raise ValueError(f"config command must be one of {_COMMANDS}, got {command!r}")
        if "model" not in doc:
            raise ValueError("config needs a 'model' document")
        fmt = doc.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {fmt!r}")
        return RunConfig(command, doc["model"], dict(doc.get("options", {})),
                         doc.get("out"), fmt)

    def validate(self) -> None:
        ModelSpec.from_json_dict(self.model)
        opt = self.options
        known = {
            "bands": {"k0", "samples"},
            "braid": {"k0", "samples"},
            "eps": set(),
            "winding": {"eref_real", "eref_imag", "samples"},
            "phase-diagram": {"axis1", "axis2", "k0", "samples"},
            "riemann": {"r", "theta0", "samples"},
        }[self.command]
        extra = set(opt) - known
        if extra:
            raise ValueError(f"unknown options for {self.command}: {sorted(extra)}")
        if self.command == "phase-diagram":
            for key in ("axis1", "axis2"):
                if key not in opt:
                    raise ValueError(f"phase-diagram needs --{key}")
                _parse_axis(opt[key])
        _require_finite(**{key: float(opt[key]) for key in
                           ("k0", "theta0", "r", "eref_real", "eref_imag") if key in opt})
        if self.command == "riemann" and float(opt.get("r", 1.0)) <= 0:
            raise ValueError("riemann radius must be positive")
        if "samples" in opt and int(opt["samples"]) < 64:
            raise ValueError("need at least 64 samples")


def _parse_axis(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"axis must be name:start:stop:resolution, got {text!r}")
    name, start, stop, res = parts
    return (name, float(start), float(stop), int(res))


def _write(path: str | None, text: str) -> None:
    if path:
        bio.write_text(path, text)


def _run_bands(config: RunConfig, spec: ModelSpec) -> str:
    opt = config.options
    traj = track_bands(spec, float(opt.get("k0", 0.0)), int(opt.get("samples", 512)))
    if config.format == "csv":
        _write(config.out, bio.trajectory_to_csv(traj))
    else:
        _write(config.out, bio.dumps_json(bio.trajectory_to_json_dict(traj)))
    return f"closure: {traj.closure.cycle_str()}"


def _run_braid(config: RunConfig, spec: ModelSpec) -> str:
    opt = config.options
    k0 = float(opt.get("k0", 0.0))
    traj = track_bands(spec, k0, int(opt.get("samples", 512)))
    word = extract_braid_word(traj)
    index = total_braid_index(spec, k0=k0)
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


def _run_eps(config: RunConfig, spec: ModelSpec) -> str:
    eps = find_eps_k(spec)
    _write(config.out, bio.dumps_json(bio.eps_to_json_dict(eps)))
    ks = ", ".join(f"{ep.k:.6f}" for ep in eps)
    return f"eps: {len(eps)}" + (f" at k = {ks}" if eps else "")


def _run_winding(config: RunConfig, spec: ModelSpec) -> str:
    opt = config.options
    e_ref = complex(float(opt.get("eref_real", 0.0)), float(opt.get("eref_imag", 0.0)))
    result = winding_number(spec, e_ref, int(opt.get("samples", 1024)))
    doc = {"nu": result.nu, "raw": result.raw, "residual": result.residual,
           "reference_energy": [e_ref.real, e_ref.imag], "samples": result.samples}
    _write(config.out, bio.dumps_json(doc))
    return f"nu: {result.nu} (residual {result.residual:.3e})"


def _run_phase_diagram(config: RunConfig, spec: ModelSpec) -> str:
    opt = config.options
    diagram = phase_diagram(spec, _parse_axis(opt["axis1"]), _parse_axis(opt["axis2"]),
                            k0=float(opt.get("k0", np.pi / 4)),
                            samples=int(opt.get("samples", 512)))
    if config.format == "csv":
        _write(config.out, bio.phase_diagram_to_csv(diagram))
    else:
        _write(config.out, bio.dumps_json(bio.phase_diagram_to_json_dict(diagram)))
    words = {c.word for row in diagram.cells for c in row if not c.degenerate}
    n_deg = len(diagram.degenerate_cells())
    total = diagram.axis1.resolution * diagram.axis2.resolution
    return f"cells: {total}, degenerate: {n_deg}, phases: {len(words)}"


def _run_riemann(config: RunConfig, spec: ModelSpec) -> str:
    opt = config.options
    r = float(opt.get("r", 1.0))
    traj = riemann_loop(spec, r, int(opt.get("samples", 512)),
                        float(opt.get("theta0", 0.0)))
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
        config.validate()
        spec = ModelSpec.from_json_dict(config.model)
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        summary = _RUNNERS[config.command](config, spec)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bloch-braids",
        description="Braiding of complex Bloch bands in 1D gain-loss lattices.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bands", help="track complex bands over one zone period")
    _add_common(p)
    p.add_argument("--k0", type=float, default=0.0, help="base momentum")
    p.add_argument("--samples", type=int, default=512, help="initial sample count")

    p = subs.add_parser("braid", help="extract the braid word and index")
    _add_common(p, with_format=False)
    p.add_argument("--k0", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=512)

    p = subs.add_parser("eps", help="locate momentum-space exceptional points")
    _add_common(p, with_format=False)

    p = subs.add_parser("winding", help="spectral winding number about a reference energy")
    _add_common(p, with_format=False)
    p.add_argument("--eref", default="0,0", metavar="RE[,IM]",
                   help="reference energy, e.g. '0' or '-0.7,0.0'")
    p.add_argument("--samples", type=int, default=1024)

    p = subs.add_parser("phase-diagram", help="classify a 2-parameter plane")
    _add_common(p)
    p.add_argument("--axis1", required=True, metavar="NAME:START:STOP:RES")
    p.add_argument("--axis2", required=True, metavar="NAME:START:STOP:RES")
    p.add_argument("--k0", type=float, default=float(np.pi / 4))
    p.add_argument("--samples", type=int, default=512)

    p = subs.add_parser("riemann", help="eigenvalue loops of H(z) on a circle |z| = r")
    _add_common(p)
    p.add_argument("--r", type=float, default=1.0, help="circle radius")
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=512)

    p = subs.add_parser("from-config", help="run a saved configuration file")
    p.add_argument("config", help="path to a config JSON written by --dump-config")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    with open(args.model, encoding="utf-8") as fh:
        model_doc = json.load(fh)
    options: dict = {}
    if args.command in ("bands", "braid"):
        options = {"k0": args.k0, "samples": args.samples}
    elif args.command == "winding":
        parts = str(args.eref).split(",")
        if len(parts) > 2:
            raise ValueError(f"--eref takes RE or RE,IM, got {args.eref!r}")
        options = {"eref_real": float(parts[0]),
                   "eref_imag": float(parts[1]) if len(parts) > 1 else 0.0,
                   "samples": args.samples}
    elif args.command == "phase-diagram":
        options = {"axis1": args.axis1, "axis2": args.axis2,
                   "k0": args.k0, "samples": args.samples}
    elif args.command == "riemann":
        options = {"r": args.r, "theta0": args.theta0, "samples": args.samples}
    fmt = getattr(args, "format", "json" if args.command in ("braid", "eps", "winding") else "csv")
    return RunConfig(args.command, model_doc, options, args.out, fmt)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "from-config":
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = RunConfig.from_json_dict(json.load(fh))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return run(config)
    try:
        config = _config_from_args(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.dump_config:
        bio.write_text(args.dump_config, bio.dumps_json(config.to_json_dict()))
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
