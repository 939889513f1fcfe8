"""Spans and counts at gamgen's layer boundaries, recorded from the benchmark side.

``Tracer.install`` replaces every public function of the traced layers at
every module binding gamgen calls it through (``digamma`` as bound in
``gamgen.estimators`` as well as in ``gamgen.special``), patches
``RngStream.integers`` and ``Sample.__init__`` on their classes, and wraps
the callables of each generator that ``make_generator`` returns (and so of
those ``parse_generator_spec`` returns) with ``dataclasses.replace``. Spans
stay in memory until ``write`` saves them.

A span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np

import gamgen
from gamgen import bootstrap, cli, distribution, estimators, experiment, generators, special

LAYERS = {
    "special": special,
    "generators": generators,
    "distribution": distribution,
    "estimators": estimators,
    "bootstrap": bootstrap,
    "experiment": experiment,
    "cli": cli,
}

def _size(size) -> int:
    return 1 if size is None else int(np.prod(size))


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [id, name, enclosed seconds]
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args, kwargs)`` may replace the
        arguments and ``after(result, args)`` may replace the result."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, name, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                tracer.spans.append((sid, parent, name, start, end))
            return result if after is None else after(result, args)

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, amount=1):
        self.counts[key] += amount

    def _in(self, name) -> bool:
        return any(frame[1] == name for frame in self._stack)

    # -- hooks ---------------------------------------------------------------

    def _hooks(self):
        c = self._count

        def counting(key, measure=lambda args, kwargs: 1):
            def before(args, kwargs):
                c(key, measure(args, kwargs))
                return args, kwargs
            return before

        def mu_ml_after(result, args):
            c("estimators.estimate_mu_ml.iterations", result[1].iterations)
            return result

        def full_ml_after(result, args):
            c("estimators.fit_full_ml.iterations", result.iterations)
            c("estimators.fit_full_ml.infeasible_points", result.infeasible_points)
            return result

        def boot_before(args, kwargs):
            args = list(args)
            estimator = args[1] if len(args) > 1 else kwargs.pop("estimator")

            def counted(sample):
                c("bootstrap.estimator_calls")
                return estimator(sample)

            if len(args) > 1:
                args[1] = counted
            else:
                kwargs["estimator"] = counted
            c("bootstrap.calls")
            return tuple(args), kwargs

        def boot_after(result, args):
            c("bootstrap.resamples_used", result.n_used)
            return result

        def experiment_before(args, kwargs):
            cfg = args[0] if args else kwargs["config"]
            c("experiment.replications", int(cfg.N) * len(cfg.theta) * len(cfg.n))
            return args, kwargs

        return {
            "special.sample_gamma": (
                counting("special.sample_gamma.draws",
                         lambda a, k: _size(k.get("size", a[3] if len(a) > 3 else None))),
                None),
            "special.digamma": (self._calls_elems("special.digamma"), None),
            "special.reg_lower_gamma": (self._calls_elems("special.reg_lower_gamma"), None),
            "special.inv_reg_lower_gamma": (counting("special.inv_reg_lower_gamma.calls"), None),
            "special.log_gamma": (counting("special.log_gamma.calls"), None),
            "distribution.sample": (counting("distribution.sample.calls"), None),
            "estimators.estimate_mu_ml": (counting("estimators.estimate_mu_ml.calls"), mu_ml_after),
            "estimators.fit_full_ml": (None, full_ml_after),
            "estimators.profile_mu": (counting("estimators.profile_mu.calls"), None),
            "bootstrap.bootstrap_bias_reduce": (boot_before, boot_after),
            "experiment.run_experiment": (experiment_before, None),
            "generators.make_generator": (None, lambda g, args: self.wrap_generator(g)),
        }

    def _calls_elems(self, name):
        def before(args, kwargs):
            self.counts[name + ".calls"] += 1
            self.counts[name + ".elems"] += int(np.broadcast(*args).size)
            return args, kwargs
        return before

    def _integers_before(self, args, kwargs):
        size = kwargs.get("size", args[3] if len(args) > 3 else None)
        self.counts["special.rng_integers.values"] += _size(size)
        if self._in("experiment.run_experiment"):
            if np.ndim(size) == 0:  # a one-row redraw
                self.counts["experiment.redraws"] += 1
                self.counts["experiment.bootstrap_rows"] += 1
            else:
                self.counts["experiment.bootstrap_rows"] += int(size[0])
        return args, kwargs

    def _sample_before(self, args, kwargs):
        self.counts["distribution.Sample.calls"] += 1
        return args, kwargs

    def wrap_generator(self, g):
        """A copy of ``g`` whose callables run inside spans."""
        def elems(name):
            def before(args, kwargs):
                self.counts[name + ".elems"] += int(np.size(args[0]))
                return args, kwargs
            return before

        fields = {}
        for attr in ("value", "d1", "d2", "log_value"):
            fn = getattr(g, attr)
            if fn is not None:
                fields[attr] = self.wrap("generators.transform", fn,
                                         before=elems("generators.transform"))
        fields["inverse"] = self.wrap("generators.inverse", g.inverse,
                                      before=elems("generators.inverse"))
        return dataclasses.replace(g, **fields)

    # -- install / remove ----------------------------------------------------

    def install(self):
        hooks = self._hooks()
        wrapped = {}
        for layer, module in LAYERS.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType) and fn not in wrapped:
                    before, after = hooks.get(f"{layer}.{name}", (None, None))
                    wrapped[fn] = self.wrap(f"{layer}.{name}", fn, before, after)
        modules = [gamgen] + [m for key, m in sys.modules.items()
                              if key.startswith("gamgen.") and m is not None]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped[value])
        for cls, attr, name, before in (
            (special.RngStream, "integers", "special.rng_integers", self._integers_before),
            (distribution.Sample, "__init__", "distribution.Sample", self._sample_before),
        ):
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, before=before))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, names_units) -> dict:
        """The per-layer metrics named by (name, unit) pairs. A name ending in
        ``.self_s`` is that span's self time; others are counts or ratios."""
        counts = self.counts
        resample_calls = counts["bootstrap.estimator_calls"] - counts["bootstrap.calls"]
        rows = counts["experiment.bootstrap_rows"]
        ratios = {
            "bootstrap.useful_ratio": counts["bootstrap.resamples_used"] / resample_calls
            if resample_calls else 0.0,
            "experiment.useful_ratio": (rows - counts["experiment.redraws"]) / rows
            if rows else 0.0,
        }
        out = {}
        for name, unit in names_units:
            if name.endswith(".self_s"):
                value = self.self_s[name[: -len(".self_s")]]
            elif name in ratios:
                value = ratios[name]
            else:
                value = counts[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
