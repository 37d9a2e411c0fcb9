"""Spans around cdkit's layers, recorded from outside the package.

``Tracer.install`` replaces each public function of the ten layer modules,
under every name a cdkit module looks it up by (``cdkit.simlab.cd_quantile``
as well as ``cdkit.cd_core.cd_quantile``), with a wrapper that records a
span: name, start, end, parent span and replicate id.  A few private entry
points and methods that mark replicates and file I/O are wrapped too.
Spans stay in memory; ``uninstall`` restores the originals.  The tracer keeps
one span stack, so it is only used with ``CDKIT_THREADS=1``.
"""

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from cdkit import probkernel, simlab

LAYERS = ("probkernel", "cd_core", "constructors", "inference", "bootstrap", "likelihood",
          "compare", "multivariate", "simlab", "cli")
CLI_COMMANDS = ("construct", "estimate", "test", "compare", "mv")
REPLICATE_SPANS = ("simlab.replicate", "simlab.CdGenerator.replicate",
                   "simlab.CdGenerator.draw_data", "simlab.CdGenerator.build_cd")
NAMED_CDS = ("constructors.normal_mean_cd", "constructors.normal_variance_cd",
             "constructors.fisher_z_corr_cd", "constructors.exponential_rate_cd",
             "constructors.from_pivot")
IO_SPANS = ("cd_core.load_cd_csv", "cd_core.save_cd_csv", "multivariate.load_cloud_csv",
            "compare.dump_slopes", "simlab.dump_u_values", "cli._read_matrix")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index, replicate id]
        self.counts = Counter()
        self.build_keys = set()
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, rep_pos=None, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if rep_pos is not None:
                rep = int(_arg(args, kwargs, rep_pos, "index"))
            else:
                rep = spans[parent][4] if parent >= 0 else None
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = [name(args) if callable(name) else name, clock(), 0.0, parent, rep]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _ancestor(self, prefixes):
        i = self._stack[-1] if self._stack else -1
        while i >= 0:
            if self.spans[i][0].startswith(prefixes):
                return True
            i = self.spans[i][3]
        return False

    # -- hooks that count work at the layer boundary -----------------------

    def _points(self, key):
        def before(args, kwargs):
            self.counts[key] += int(np.size(args[1]))
            return args, kwargs
        return before

    def _csv_bytes(self, args, kwargs, result):
        self.counts["cd_core.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def _resample_before(self, args, kwargs):
        data, plan = args[0], args[1]
        self._draw_rows(plan.n_resamples, data.n)
        args = list(args)
        args[2] = self._counted("bootstrap.statistic.calls", args[2])
        se = _arg(args, kwargs, 3, "se_statistic")
        if se is not None:
            se = self._counted("bootstrap.statistic.calls", se)
            if len(args) > 3:
                args[3] = se
            else:
                kwargs = dict(kwargs, se_statistic=se)
        return tuple(args), kwargs

    def _hall_before(self, args, kwargs):
        self._draw_rows(args[1].n_resamples, args[0].n)
        return args, kwargs

    def _draw_rows(self, b, n):
        self.counts["bootstrap.rows_drawn"] += b
        self.counts["bootstrap.index_block_bytes"] += b * n * np.dtype(np.int64).itemsize

    def _loglik_before(self, args, kwargs):
        return (self._counted("likelihood.loglik_evals", args[0]), *args[1:]), kwargs

    def _build_before(self, args, kwargs):
        if self._ancestor(("compare.", "cli.compare")):
            gen = args[0]
            self.counts["compare.cd_builds"] += 1
            self.build_keys.add((gen.model, gen.constructor, gen.n, gen.theta0, gen.master_seed,
                                 tuple(sorted(gen.params.items())), int(args[2])))
        return args, kwargs

    def _kept(self, args, kwargs, rep):
        self.counts["bootstrap.rows_kept"] += rep.kept

    def _hall_kept(self, args, kwargs, cd):
        self.counts["bootstrap.rows_kept"] += cd.meta["n_resamples"]

    def _failed(self, args, kwargs, row):
        self.counts["simlab.failures"] += row is None

    # -- patching ----------------------------------------------------------

    def install(self):
        layers = {layer: importlib.import_module("cdkit." + layer) for layer in LAYERS}
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "cdkit" or name.startswith("cdkit."))]
        hooks = {
            "cd_core.cd_eval": {"before": self._points("cd_core.cd_eval.points")},
            "cd_core.cd_quantile": {"before": self._points("cd_core.cd_quantile.points")},
            "cd_core.save_cd_csv": {"after": self._csv_bytes},
            "bootstrap.resample": {"before": self._resample_before, "after": self._kept},
            "bootstrap.hall_bootstrap_cd": {"before": self._hall_before,
                                            "after": self._hall_kept},
            "likelihood.likelihood_acd": {"before": self._loglik_before},
            "cli.run": {"name": lambda args: f"cli.{(args[0] or ['?'])[0]}"},
        }
        for layer, mod in layers.items():
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    opts = dict(hooks.get(f"{layer}.{attr}", {}))
                    name = opts.pop("name", f"{layer}.{attr}")
                    self._replace(mods, fn, self._wrap(name, fn, **opts))
        self._replace(mods, simlab._replicate_summary,
                      self._wrap("simlab.replicate", simlab._replicate_summary, rep_pos=1,
                                 after=self._failed))
        read_matrix = layers["cli"]._read_matrix
        self._replace(mods, read_matrix, self._wrap("cli._read_matrix", read_matrix))
        for cls, attr, rep_pos, before in (
                (simlab.CdGenerator, "replicate", 1, None),
                (simlab.CdGenerator, "draw_data", 1, None),
                (simlab.CdGenerator, "build_cd", 2, self._build_before),
                (probkernel.RngStream, "generator", None, None)):
            fn = vars(cls)[attr]
            name = f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{attr}"
            setattr(cls, attr, self._wrap(name, fn, rep_pos=rep_pos, before=before))
            self._saved.append((cls, attr, fn))

    def _replace(self, mods, fn, wrapper):
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._saved.append((mod, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, wall_s, json_bytes):
        """Per-layer counts and times (ms) for everything recorded so far."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls = Counter(s[0] for s in spans)
        total = defaultdict(float)
        self_ms = defaultdict(float)
        for i, s in enumerate(spans):
            total[s[0]] += dur[i] * 1e3
            self_ms[s[0].split(".")[0]] += (dur[i] - child[i]) * 1e3

        def under(names, prefix):
            """Total ms of spans in names with an ancestor whose name starts with prefix."""
            ms = 0.0
            for i, s in enumerate(spans):
                if s[0] in names:
                    j = s[3]
                    while j >= 0 and not spans[j][0].startswith(prefix):
                        j = spans[j][3]
                    if j >= 0:
                        ms += dur[i] * 1e3
            return ms

        def top_level(names):
            """Total ms of spans in names with no ancestor in names."""
            ms = 0.0
            for i, s in enumerate(spans):
                if s[0] in names:
                    j = s[3]
                    while j >= 0 and spans[j][0] not in names:
                        j = spans[j][3]
                    if j < 0:
                        ms += dur[i] * 1e3
            return ms

        c = self.counts
        drawn = c["bootstrap.rows_drawn"]
        builds = c["compare.cd_builds"]
        rep_self = sum((dur[i] - child[i]) * 1e3
                       for i, s in enumerate(spans) if s[0] in REPLICATE_SPANS)
        m = {
            "probkernel.cdf.calls": calls["probkernel.cdf"],
            "probkernel.quantile.calls": calls["probkernel.quantile"],
            "probkernel.log_tail.calls": calls["probkernel.log_tail"],
            "probkernel.rng_generator.calls": calls["probkernel.RngStream.generator"],
            "probkernel.self_ms": self_ms["probkernel"],
            "cd_core.cd_eval.calls": calls["cd_core.cd_eval"],
            "cd_core.cd_eval.points": c["cd_core.cd_eval.points"],
            "cd_core.cd_quantile.calls": calls["cd_core.cd_quantile"],
            "cd_core.cd_quantile.points": c["cd_core.cd_quantile.points"],
            "cd_core.self_ms": self_ms["cd_core"],
            "cd_core.save_cd_csv.ms": total["cd_core.save_cd_csv"],
            "cd_core.load_cd_csv.ms": total["cd_core.load_cd_csv"],
            "cd_core.csv_bytes": c["cd_core.csv_bytes"],
            "constructors.cds_built": sum(calls[n] for n in NAMED_CDS),
            "constructors.self_ms": self_ms["constructors"],
            "bootstrap.resample.calls": calls["bootstrap.resample"],
            "bootstrap.statistic.calls": c["bootstrap.statistic.calls"],
            "bootstrap.rows_drawn": drawn,
            "bootstrap.rows_kept_ratio": c["bootstrap.rows_kept"] / drawn if drawn else 0.0,
            "bootstrap.index_block_bytes": c["bootstrap.index_block_bytes"],
            "bootstrap.self_ms": self_ms["bootstrap"],
            "likelihood.acd.calls": calls["likelihood.likelihood_acd"],
            "likelihood.loglik_evals": c["likelihood.loglik_evals"],
            "likelihood.self_ms": self_ms["likelihood"],
            "inference.calls": sum(v for k, v in calls.items() if k.startswith("inference.")),
            "inference.self_ms": self_ms["inference"],
            "compare.cd_builds": builds,
            "compare.build_useful_ratio": len(self.build_keys) / builds if builds else 0.0,
            "compare.dominance_ms": total["compare.dominance_mc"],
            "compare.dispersion_ms": total["compare.mc_dispersion"],
            "compare.risk_ms": total["compare.risk"],
            "multivariate.centrality_fn_ms": total["multivariate.centrality_fn"],
            "multivariate.query_ms": total["multivariate.centrality"],
            "multivariate.depth_ms": total["multivariate.depth"],
            "simlab.replicates": calls["simlab.CdGenerator.draw_data"],
            "simlab.failures": c["simlab.failures"],
            "simlab.draw_ms": total["simlab.CdGenerator.draw_data"],
            "simlab.replicate_self_ms": rep_self,
            # the traced run uses one thread, so the denominator is the wall time
            "simlab.thread_busy_ratio": top_level(REPLICATE_SPANS) / (wall_s * 1e3),
            "cli.io_ms": under(IO_SPANS, "cli."),
            "cli.json_bytes": json_bytes,
        }
        for command in CLI_COMMANDS:
            m[f"cli.{command}.ms"] = total[f"cli.{command}"]
        return m

    def dump(self, path):
        """Write the spans to a JSON-lines file, times in microseconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, rep) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start_us": (start - t0) * 1e6,
                                     "end_us": (end - t0) * 1e6,
                                     "parent": parent, "replicate": rep}) + "\n")
