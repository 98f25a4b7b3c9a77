"""Span tracing of the dynsparse layers, recorded from outside the library.

A span wraps one public function at the module attribute its caller
looks up: the modules import each other's functions by name, so each
call site is patched where it binds the name, not where the function is
defined.  A span holds its name, start, end, parent span and the id of
the subcommand run it belongs to.  Spans live in flat arrays while the
run goes and are summarised (and optionally saved) afterwards.  Counts
come from the wrapped calls' arguments and return values, never from
inside the library.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# (module holding the binding, name bound there), grouped by caller
BINDINGS = [
    ("dynsparse.cli", "load_data"),
    ("dynsparse.cli", "write_table"),
    ("dynsparse.cli", "write_manifest"),
    ("dynsparse.cli", "pimh_run"),
    ("dynsparse.cli", "posterior_summary"),
    ("dynsparse.cli", "run_sliding_window"),
    ("dynsparse.cli", "run_online_map"),
    ("dynsparse.cli", "simulate_path"),
    ("dynsparse.smc", "smc_run"),
    ("dynsparse.smc", "gig_rvs"),
    ("dynsparse.group_lasso", "solve_window"),
    ("dynsparse.map_em", "em_map_step"),
    ("dynsparse.map_em", "gig_moment"),
    ("dynsparse.map_em", "gh_log_pdf"),
    ("dynsparse.map_em", "gh_log_pdf_grad"),
    ("dynsparse.map_em", "conditional_gh"),
    ("dynsparse.prior", "gig_rvs"),
    ("dynsparse.prior", "mgh_sample"),
    ("dynsparse.prior", "gh_sample"),
    ("dynsparse.distributions", "log_bessel_k"),
]
ROOT_SPAN = "cli.run_command"
LAYERS = ("cli", "io", "smc", "distributions", "special", "prior", "map_em", "group_lasso")

# Per-layer metrics: name -> (unit, better).  Times are inclusive span
# totals over one round of the workload's jobs unless named self_s.
METRICS = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "io.load_data_s": ("s", "lower"),
    "io.rows_parsed": ("count", "higher"),
    "io.load_data_rows_per_s": ("1/s", "higher"),
    "io.write_table_s": ("s", "lower"),
    "io.bytes_written": ("B", "lower"),
    "io.write_manifest_s": ("s", "lower"),
    "smc.pimh_run_s": ("s", "lower"),
    "smc.smc_run_calls": ("count", "lower"),
    "smc.smc_run_s": ("s", "lower"),
    "smc.smc_run_max_s": ("s", "lower"),
    "smc.smc_run_self_s": ("s", "lower"),
    "smc.particle_steps": ("count", "higher"),
    "smc.accept_rate": ("ratio", "higher"),
    "smc.accept_base": ("count", "higher"),
    "smc.log_evidence_var": ("nat2", "lower"),
    "smc.posterior_summary_s": ("s", "lower"),
    "distributions.gig_rvs_calls": ("count", "lower"),
    "distributions.gig_rvs_draws": ("count", "higher"),
    "distributions.gig_rvs_s": ("s", "lower"),
    "distributions.gig_rvs_us_per_call": ("us", "lower"),
    "distributions.gig_rvs_ns_per_draw": ("ns", "lower"),
    "distributions.gig_moment_calls": ("count", "lower"),
    "distributions.gig_moment_s": ("s", "lower"),
    "distributions.gh_log_pdf_calls": ("count", "lower"),
    "distributions.gh_log_pdf_s": ("s", "lower"),
    "special.log_bessel_k_calls": ("count", "lower"),
    "special.log_bessel_k_s": ("s", "lower"),
    "prior.simulate_path_s": ("s", "lower"),
    "prior.simulate_path_self_s": ("s", "lower"),
    "prior.conditional_gh_calls": ("count", "lower"),
    "prior.conditional_gh_s": ("s", "lower"),
    "map_em.run_online_map_s": ("s", "lower"),
    "map_em.em_map_step_calls": ("count", "lower"),
    "map_em.em_iters": ("count", "lower"),
    "map_em.em_map_step_self_s": ("s", "lower"),
    "map_em.steps_at_max_iter": ("count", "lower"),
    "group_lasso.run_sliding_window_s": ("s", "lower"),
    "group_lasso.solve_window_calls": ("count", "lower"),
    "group_lasso.solve_window_s": ("s", "lower"),
    "group_lasso.sweeps": ("count", "lower"),
    "group_lasso.sweeps_per_window": ("count", "lower"),
    "group_lasso.sweeps_per_window_max": ("count", "lower"),
    "group_lasso.zero_fraction": ("ratio", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}
# Metrics that must repeat exactly on a rerun with the same seed.
EXACT = [n for n, (unit, _) in METRICS.items() if unit in ("count", "ratio", "B", "nat2")]


class Tracer:
    """Records spans of wrapped calls; one instance per traced round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = -1
        # per run id: count name -> total, sample name -> values
        self.counts: dict[int, dict[str, float]] = {}
        self.samples: dict[int, dict[str, list[float]]] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, hook: Callable | None = None) -> Callable:
        nid = self._id(name)
        name_id, parent, run, start, end = self.name_id, self.parent, self.run, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, key: str, value: float) -> None:
        counts = self.counts.setdefault(self.run_id, {})
        counts[key] = counts.get(key, 0.0) + value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(self.run_id, {}).setdefault(key, []).append(value)

    @contextmanager
    def installed(self) -> Iterator[Callable]:
        """Patch every binding; yields a traced ``run_command``."""
        saved = []
        try:
            for module_name, attr in BINDINGS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                layer = fn.__module__.rsplit(".", 1)[-1]
                name = f"{layer}.{fn.__name__}"
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, HOOKS.get(name)))
            cli = importlib.import_module("dynsparse.cli")
            root = self.wrap(cli.run_command, ROOT_SPAN)

            def run_command(argv: list[str]) -> int:
                self.run_id += 1
                return root(argv)

            yield run_command
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span; self = duration minus children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        return dur, dur - covered

    def summary(self, run_ids: set[int] | None = None) -> dict[str, float]:
        """Per-layer metrics of the given runs (default: all recorded);
        the traced wall time and overhead are measured by the caller."""
        a = self.arrays()
        dur, own = self.self_times()
        keep = np.isin(a["run"], list(run_ids)) if run_ids is not None else slice(None)
        dur, own, ids = dur[keep], own[keep], a["name_id"][keep]
        layer_of = np.array([n.split(".", 1)[0] for n in self.names], dtype=object)[ids]
        runs = self.counts.keys() | self.samples.keys() if run_ids is None else run_ids
        c: dict[str, float] = {}
        for r in runs:
            for key, value in self.counts.get(r, {}).items():
                c[key] = c.get(key, 0.0) + value
        sweeps = [v for r in runs for v in self.samples.get(r, {}).get("sweeps", [])]
        log_z = [v for r in runs for v in self.samples.get(r, {}).get("log_z", [])]

        def spans(*span_names: str) -> np.ndarray:
            return np.isin(ids, [self._ids[n] for n in span_names if n in self._ids])

        def total(*span_names: str) -> float:
            return float(dur[spans(*span_names)].sum())

        def calls(*span_names: str) -> float:
            return float(spans(*span_names).sum())

        def self_total(name: str) -> float:
            return float(own[spans(name)].sum())

        def per_call(name: str, fn: Callable) -> float:
            d = dur[spans(name)]
            return float(fn(d)) if d.size else 0.0

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        m = {f"{layer}.self_s": float(own[layer_of == layer].sum()) for layer in LAYERS}
        load_s = total("io.load_data")
        gig_s, gig_calls = total("distributions.gig_rvs"), calls("distributions.gig_rvs")
        m.update({
            "io.load_data_s": load_s,
            "io.rows_parsed": c.get("rows_parsed", 0.0),
            "io.load_data_rows_per_s": ratio(c.get("rows_parsed", 0.0), load_s),
            "io.write_table_s": total("io.write_table"),
            "io.bytes_written": c.get("bytes_written", 0.0),
            "io.write_manifest_s": total("io.write_manifest"),
            "smc.pimh_run_s": total("smc.pimh_run"),
            "smc.smc_run_calls": calls("smc.smc_run"),
            "smc.smc_run_s": per_call("smc.smc_run", np.median),
            "smc.smc_run_max_s": per_call("smc.smc_run", np.max),
            "smc.smc_run_self_s": self_total("smc.smc_run"),
            "smc.particle_steps": c.get("particle_steps", 0.0),
            "smc.accept_rate": ratio(c.get("accepted", 0.0), c.get("accept_base", 0.0)),
            "smc.accept_base": c.get("accept_base", 0.0),
            "smc.log_evidence_var": statistics.variance(log_z) if len(log_z) > 1 else 0.0,
            "smc.posterior_summary_s": total("smc.posterior_summary"),
            "distributions.gig_rvs_calls": gig_calls,
            "distributions.gig_rvs_draws": c.get("gig_draws", 0.0),
            "distributions.gig_rvs_s": gig_s,
            "distributions.gig_rvs_us_per_call": ratio(gig_s, gig_calls, 1e6),
            "distributions.gig_rvs_ns_per_draw": ratio(gig_s, c.get("gig_draws", 0.0), 1e9),
            "distributions.gig_moment_calls": calls("distributions.gig_moment"),
            "distributions.gig_moment_s": total("distributions.gig_moment"),
            "distributions.gh_log_pdf_calls": calls(
                "distributions.gh_log_pdf", "distributions.gh_log_pdf_grad"),
            "distributions.gh_log_pdf_s": total(
                "distributions.gh_log_pdf", "distributions.gh_log_pdf_grad"),
            "special.log_bessel_k_calls": calls("special.log_bessel_k"),
            "special.log_bessel_k_s": total("special.log_bessel_k"),
            "prior.simulate_path_s": total("prior.simulate_path"),
            "prior.simulate_path_self_s": self_total("prior.simulate_path"),
            "prior.conditional_gh_calls": calls("prior.conditional_gh"),
            "prior.conditional_gh_s": total("prior.conditional_gh"),
            "map_em.run_online_map_s": total("map_em.run_online_map"),
            "map_em.em_map_step_calls": calls("map_em.em_map_step"),
            "map_em.em_iters": c.get("em_iters", 0.0),
            "map_em.em_map_step_self_s": self_total("map_em.em_map_step"),
            "map_em.steps_at_max_iter": c.get("steps_at_max_iter", 0.0),
            "group_lasso.run_sliding_window_s": total("group_lasso.run_sliding_window"),
            "group_lasso.solve_window_calls": calls("group_lasso.solve_window"),
            "group_lasso.solve_window_s": per_call("group_lasso.solve_window", np.median),
            "group_lasso.sweeps": float(sum(sweeps)),
            "group_lasso.sweeps_per_window": float(np.median(sweeps)) if sweeps else 0.0,
            "group_lasso.sweeps_per_window_max": float(max(sweeps, default=0)),
            "group_lasso.zero_fraction": ratio(c.get("zeros", 0.0), c.get("coefs", 0.0)),
            "trace.spans": float(dur.size),
        })
        return m


# ------------------------------------------------------ counts per call


def _rows(tr: Tracer, args, kwargs, data) -> None:
    tr.add("rows_parsed", float(sum(y.shape[0] for y in data.ys)))


def _table_bytes(tr: Tracer, args, kwargs, result) -> None:
    tr.add("bytes_written", float(Path(args[0]).stat().st_size))


def _manifest_bytes(tr: Tracer, args, kwargs, path) -> None:
    tr.add("bytes_written", float(Path(path).stat().st_size))


def _pimh(tr: Tracer, args, kwargs, chain) -> None:
    tr.add("accepted", float(np.sum(chain.accepted[1:])))
    tr.add("accept_base", float(chain.accepted.shape[0] - 1))


def _smc(tr: Tracer, args, kwargs, result) -> None:
    data, n_particles = args[0], args[2]
    tr.add("particle_steps", float(n_particles * data.T))
    tr.sample("log_z", float(result[2]))


def _gig(tr: Tracer, args, kwargs, draws) -> None:
    tr.add("gig_draws", float(np.size(draws)))


def _online_map(tr: Tracer, args, kwargs, fit) -> None:
    max_iter = kwargs.get("max_iter", 100)
    tr.add("em_iters", float(np.sum(fit.em_iters)))
    tr.add("steps_at_max_iter", float(np.sum(fit.em_iters >= max_iter)))


def _solve_window(tr: Tracer, args, kwargs, result) -> None:
    tr.sample("sweeps", float(len(result[1]) - 1))


def _sliding(tr: Tracer, args, kwargs, fit) -> None:
    tr.add("zeros", float(np.sum(fit.beta_hat == 0.0)))
    tr.add("coefs", float(fit.beta_hat.size))


HOOKS = {
    "io.load_data": _rows,
    "io.write_table": _table_bytes,
    "io.write_manifest": _manifest_bytes,
    "smc.pimh_run": _pimh,
    "smc.smc_run": _smc,
    "distributions.gig_rvs": _gig,
    "map_em.run_online_map": _online_map,
    "group_lasso.solve_window": _solve_window,
    "group_lasso.run_sliding_window": _sliding,
}
