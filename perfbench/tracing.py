"""In-memory span recorder for the traced run.

The wrappers go on the module attributes the program's own callers look
functions up through (``diffengine.linear_combine``, ``gaussmeasure._sample_block``,
...), so every call path is seen.  They are installed only for the traced
phase and removed afterwards.  Each span records its op id, span id, parent
span id, name, start and end; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name)
WRAPPED = [
    ("banachdiff.spaces", "linear_combine", "spaces.linear_combine"),
    ("banachdiff.spaces", "pw_point", "spaces.pw_point"),
    ("banachdiff.spaces", "pw_from_values", "spaces.pw_from_values"),
    ("banachdiff.spaces", "seq_point", "spaces.seq_point"),
    ("banachdiff.spaces", "eval_norm", "spaces.eval_norm"),
    ("banachdiff.spaces", "point_to_dict", "spaces.point_to_dict"),
    ("banachdiff.spaces", "point_from_dict", "spaces.point_from_dict"),
    ("banachdiff.diffengine", "gateaux_verdict", "diffengine.gateaux_verdict"),
    ("banachdiff.diffengine", "one_sided_derivatives", "diffengine.one_sided_derivatives"),
    ("banachdiff.oracles", "apply_rep", "oracles.apply_rep"),
    ("banachdiff.oracles", "witness_linf", "oracles.witness_linf"),
    ("banachdiff.oracles", "witness_Linf", "oracles.witness_Linf"),
    ("banachdiff.oracles", "witness_nbv", "oracles.witness_nbv"),
    ("banachdiff.topology", "classify", "topology.classify"),
    ("banachdiff.topology", "densify_l1", "topology.densify_l1"),
    ("banachdiff.topology", "densify_linf", "topology.densify_linf"),
    ("banachdiff.topology", "densify_csup", "topology.densify_csup"),
    ("banachdiff.gaussmeasure", "_sample_block", "gaussmeasure._sample_block"),
    ("banachdiff.gaussmeasure", "estimate_nondiff_measure", "gaussmeasure.estimate_nondiff_measure"),
    ("banachdiff.gaussmeasure", "b2_tie_probability_oracle", "gaussmeasure.b2_tie_probability_oracle"),
    ("banachdiff.projective", "compose_propagate", "projective.compose_propagate"),
    ("banachdiff.projective", "cyl_gateaux", "projective.cyl_gateaux"),
    ("banachdiff.projective", "cyl_eval", "projective.cyl_eval"),
    ("banachdiff.cli", "main", "cli.main"),
    ("banachdiff.cli", "build_parser", "cli.build_parser"),
    ("banachdiff.cli", "_emit", "cli.emit"),
]
FUNCTIONAL_EVALS = "diffengine.functional_evals"  # Functional.__call__
SPAN_NAMES = [name for _m, _a, name in WRAPPED] + [FUNCTIONAL_EVALS]


class SpanRecorder:
    def __init__(self):
        self.spans: list = []
        self.raised: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append(None)
            rec._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec.raised[name] += 1
                raise
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[sid] = (rec.op_id, sid, parent, name, start, end)

        return wrapper

    def op_runner(self, fn):
        """``fn`` as the root span of one op; each call starts a new op id."""
        wrapped = self.wrap("op", fn)

        def run_op(op):
            self.op_id += 1
            return wrapped(op)

        return run_op

    def install(self) -> list:
        """Wrap every listed function wherever a banachdiff module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "banachdiff" or n.startswith("banachdiff.")]
        patches = []
        for modname, attr, name in WRAPPED:
            if modname not in sys.modules:
                continue  # the workload never imported it, so nothing can call it
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        functional = sys.modules["banachdiff.diffengine"].Functional
        patches.append((functional, "__call__", functional.__call__))
        functional.__call__ = self.wrap(FUNCTIONAL_EVALS, functional.__call__)
        return patches

    def dump(self) -> dict:
        """Spans as rows of [op, span, parent, name index, start, end]."""
        names = sorted({sp[3] for sp in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["op", "span", "parent", "name", "start", "end"],
            "names": names,
            "spans": [[o, s, p, index[n], a, b] for o, s, p, n, a, b in self.spans],
        }

    @staticmethod
    def uninstall(patches: list) -> None:
        for obj, key, orig in reversed(patches):
            setattr(obj, key, orig)

    def layer_metrics(self) -> dict:
        """Per-op call counts, raises and self seconds, self-time shares, ratios.

        Counts and times are divided by the number of traced ops, so they
        describe the work of one op and not how many ops fitted in the run.
        A share is a function's self time over the traced ops' total time.
        """
        child = defaultdict(float)
        for _op, _sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for _op, sid, _parent, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child[sid]
        ops = calls["op"]
        op_s = sum(end - start for _o, _s, parent, _n, start, end in self.spans if parent < 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (ratio(calls[name], ops), "1/op")
            out[f"{name}.self_s"] = (ratio(self_s[name], ops), "s/op")
            out[f"{name}.self_share"] = (ratio(self_s[name], op_s), "ratio")
        out["spaces.pw_from_values.raised"] = (ratio(self.raised["spaces.pw_from_values"], ops), "1/op")

        verdicts = calls["diffengine.gateaux_verdict"]
        points = calls["spaces.seq_point"] + calls["spaces.pw_point"]
        out["diffengine.points_per_verdict"] = (ratio(points, verdicts), "ratio")
        out["diffengine.evals_per_verdict"] = (ratio(calls[FUNCTIONAL_EVALS], verdicts), "ratio")
        out["gaussmeasure.blocks_per_estimate"] = (
            ratio(calls["gaussmeasure._sample_block"], calls["gaussmeasure.estimate_nondiff_measure"]),
            "ratio",
        )
        return out
