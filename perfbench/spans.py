"""In-memory span and count tracing of bloch_braids, from outside the package.

``Tracer.install`` replaces each traced function at the names its callers
look it up by (``bloch_braids.cli.track_bands``,
``bloch_braids.topology.track_bands``, ...) with a wrapper that records a
span (name, start, end, parent) and updates counters; ``uninstall`` puts
the originals back. Spans opened on a sweep worker thread take the
innermost span open on the installing thread as their parent. Per-layer
metrics are derived from the spans after the run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from pathlib import Path

IO_FUNCS = ("trajectory_to_csv", "trajectory_to_json_dict", "phase_diagram_to_csv",
            "phase_diagram_to_json_dict", "eps_to_json_dict", "dumps_json", "write_text")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (id, name, start, end, parent, thread)
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._patched: list[tuple] = []
        self._next = 0

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        return self._stacks.setdefault(threading.get_ident(), [])

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def open_names(self) -> set[str]:
        names = {name for _, name in self._stack()}
        names.update(name for _, name in self._stacks.get(self._main, ()))
        return names

    def call(self, name, fn, args, kwargs, on_result=None, on_error=None):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1][0] if main else None
        with self._lock:
            sid = self._next
            self._next += 1
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error:
                on_error(self, exc)
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))
        if on_result:
            on_result(self, result)
        return result

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, on_result, on_error)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def counted(self, owner, attr: str, name: str) -> None:
        """Count calls without a span (for calls too frequent to time)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        from bloch_braids import cli, errors, io, models, spectrum, sweep, topology

        def tracked(tr, traj):
            tr.count("spectrum.track_bands_calls")
            tr.count("spectrum.samples_tracked", traj.samples)
            if traj.samples > spectrum.TRACK_SAMPLES_DEFAULT:
                tr.count("spectrum.refined_calls")

        def track_failed(tr, exc):
            tr.count("spectrum.track_bands_calls")
            if isinstance(exc, errors.RefinementExhausted):
                tr.count("spectrum.refinement_exhausted")
            elif isinstance(exc, errors.DegeneracyEncountered):
                tr.count("spectrum.degeneracy_raised")

        def extracted(tr, word):
            tr.count("braid.letters", len(word))

        def extract_failed(tr, exc):
            if isinstance(exc, (errors.DegenerateCrossing, errors.UnresolvedCrossing)):
                tr.count("braid.crossing_errors")

        def wound(tr, result):
            tr.count("topology.winding_samples", result.samples)

        def eps_found(tr, result):
            tr.count("topology.find_eps_k_calls")

        def classified(tr, result):
            if "topology.gamma_axis_references" in tr.open_names():
                tr.count("topology.gamma_labels")

        def row_done(tr, results):
            tr.count("sweep.cells", len(results))
            tr.count("sweep.fallback_cells", sum(1 for r in results if r is None))

        def replaced(tr, result):
            tr.count("models.replace_param_calls")

        for owner in (cli, topology):
            self.wrap(owner, "track_bands", "spectrum.track_bands", tracked, track_failed)
            self.wrap(owner, "extract_braid_word", "braid.extract_braid_word",
                      extracted, extract_failed)
            self.wrap(owner, "winding_number", "topology.winding_number", wound)
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "riemann_loop", "spectrum.riemann_loop")
        self.wrap(cli, "find_eps_k", "topology.find_eps_k", eps_found)
        self.wrap(cli, "total_braid_index", "topology.total_braid_index")
        self.wrap(cli, "phase_diagram", "topology.phase_diagram")
        self.wrap(cli, "dimer_ep_zplane", "topology.dimer_ep_zplane")
        self.wrap(topology, "_classify", "topology.classify", classified)
        self.wrap(topology, "gamma_axis_references", "topology.gamma_axis_references")
        self.wrap(topology, "most_degenerate_point", "topology.most_degenerate_point")
        self.wrap(topology, "ep_zplane_numeric", "topology.ep_zplane_numeric")
        self.wrap(sweep, "dimer_row_classify", "sweep.dimer_row_classify", row_done)
        self.wrap(models.ModelSpec, "replace_param", "models.replace_param", replaced)
        self.counted(spectrum.BandTrajectory, "evaluate_raw", "braid.evaluations")
        for fn in IO_FUNCS:
            self.wrap(io, fn, f"io.{fn}")
        original_write = io.write_text
        tracer = self

        @functools.wraps(original_write)
        def write_text(path, text):
            tracer.count("io.bytes_written", len(text.encode("utf-8")))
            return original_write(path, text)

        io.write_text = write_text
        self._patched.append((io, "write_text", original_write))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- derived metrics ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list] = {}
        for s in self.spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append(s)

        def total(name):
            # outermost spans of this name only, so nesting is not counted twice
            out = 0.0
            for s in self.spans:
                if s[1] != name:
                    continue
                p = s[4]
                while p is not None and by_id[p][1] != name:
                    p = by_id[p][4]
                if p is None:
                    out += s[3] - s[2]
            return out

        def self_time(name):
            out = 0.0
            for s in self.spans:
                if s[1] != name:
                    continue
                covered, end = 0.0, s[2]
                for _, _, a, b, _, _ in sorted(children.get(s[0], ()), key=lambda c: c[2]):
                    a, b = max(a, end), min(b, s[3])
                    if b > a:
                        covered += b - a
                        end = b
                out += s[3] - s[2] - covered
            return out

        io_time = sum(s[3] - s[2] for s in self.spans if s[1].startswith("io.")
                      and (s[4] is None or not by_id[s[4]][1].startswith("io.")))
        c = self.counts
        cells = c["sweep.cells"]
        return {
            "sweep.dimer_row_classify_s": total("sweep.dimer_row_classify"),
            "sweep.cells": cells,
            "sweep.fallback_cells": c["sweep.fallback_cells"],
            "sweep.settled_ratio": (cells - c["sweep.fallback_cells"]) / cells if cells else 0.0,
            "spectrum.track_bands_s": total("spectrum.track_bands"),
            "spectrum.track_bands_calls": c["spectrum.track_bands_calls"],
            "spectrum.samples_tracked": c["spectrum.samples_tracked"],
            "spectrum.refined_calls": c["spectrum.refined_calls"],
            "spectrum.refinement_exhausted": c["spectrum.refinement_exhausted"],
            "spectrum.degeneracy_raised": c["spectrum.degeneracy_raised"],
            "spectrum.riemann_loop_s": total("spectrum.riemann_loop"),
            "braid.extract_braid_word_s": total("braid.extract_braid_word"),
            "braid.letters": c["braid.letters"],
            "braid.evaluations": c["braid.evaluations"],
            "braid.crossing_errors": c["braid.crossing_errors"],
            "topology.gamma_axis_references_s": total("topology.gamma_axis_references"),
            "topology.gamma_labels": c["topology.gamma_labels"],
            "topology.most_degenerate_point_s": total("topology.most_degenerate_point"),
            "topology.find_eps_k_s": total("topology.find_eps_k"),
            "topology.find_eps_k_calls": c["topology.find_eps_k_calls"],
            "topology.ep_zplane_numeric_s": total("topology.ep_zplane_numeric"),
            "topology.winding_number_s": total("topology.winding_number"),
            "topology.winding_samples": c["topology.winding_samples"],
            "topology.phase_diagram_self_s": self_time("topology.phase_diagram"),
            "models.replace_param_calls": c["models.replace_param_calls"],
            "models.replace_param_s": total("models.replace_param"),
            "io.write_s": io_time,
            "io.bytes_written": c["io.bytes_written"],
            "cli.self_s": self_time("cli.main"),
        }

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["counts"] = dict(self.counts)
        doc["span_fields"] = ["id", "name", "start", "end", "parent", "thread"]
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc) + "\n")
