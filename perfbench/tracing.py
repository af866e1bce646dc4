"""Spans around the package's layer boundaries, installed from outside.

``Tracer.install`` replaces module, class and dict attributes of ``ucf`` with
timing wrappers and ``uninstall`` puts the originals back.  Each name is
patched where it is looked up: ``family`` calls the ``signature_groups`` it
imported from ``bitops``, so that is the binding wrapped.  A target that no
longer exists is skipped, and every metric that depends on it is reported
as absent instead of failing the run.

A span records its id, name, start, end, parent span and run id (the index
of the benchmark operation that caused it).  Spans stay in memory until
``write`` dumps them as JSON lines.  Self time is a span's duration minus
the time its child spans cover; the traced run is serial, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter, defaultdict

BOUNDS_NAMES = (
    "generalized_binomial", "log2_exact", "min_l_weight_upper", "min_weight_upper",
    "reimer_l_lower", "reimer_lower", "satisfiable", "separation_lower",
)
INVARIANTS = ("degree_profile", "relabel_by_degree", "frankl_witness", "l_fold_weight")
SUITE_NAMES = ("staircase", "bounds", "structure", "conjectures", "oracles")


def _count(key, amount=1):
    def hook(tracer, args, result, state):
        tracer.counts[key] += amount(args, result) if callable(amount) else amount
    return hook


def _kernel_top(tracer, args, result, state):
    tracer.counts["kernel_top"] += 1


def _signature_groups(tracer, args, result, state):
    tracer.counts["kernel_top"] += 1
    tracer.counts["signature_cells"] += len(args[0]) * args[1]


def _kernel_snapshot(tracer, args):
    return tracer.counts["kernel_top"]


def _intermediate(tracer, args, result, state):
    if result[1].case == "general":
        tracer.counts["general_builds"] += 1
        tracer.counts["general_kernel_calls"] += tracer.counts["kernel_top"] - state


def _separating_snapshot(tracer, args):
    return tracer.counts["separating_true"]


def _min_weight_search(tracer, args, result, state):
    tracer.counts["examined"] += result.examined
    tracer.counts["search_separating"] += tracer.counts["separating_true"] - state


def _separating(tracer, args, result, state):
    if result:
        tracer.counts["separating_true"] += 1


def _suite(name):
    def hook(tracer, args, result, state):
        tracer.counts[f"suite.{name}.families_checked"] += result.families_checked
    return hook


def _specs():
    """(owner path, key, span name or None, before hook, after hook).

    Counter-only wrappers (span name None) add no span, so their time stays
    in the enclosing span's self time: the closure tiers count toward
    bitops.masks_union_closed, bit_columns toward bitops.signature_groups.
    """
    specs = [
        ("ucf.family", "masks_union_closed", "bitops.masks_union_closed", None, _kernel_top),
        ("ucf.bitops", "masks_union_closed", "bitops.masks_union_closed", None, None),
        ("ucf.bitops", "_closed_pairwise_py", None, None, _count("tier.pairwise_py")),
        ("ucf.bitops", "_closed_by_table", None, None, _count("tier.table")),
        ("ucf.bitops", "_compress", None, None, _count("tier.compress")),
        ("ucf.bitops", "_closed_pairwise_np", None, None, _count("tier.pairwise_np")),
        ("ucf.family", "signature_groups", "bitops.signature_groups", None, _signature_groups),
        ("ucf.bitops", "bit_columns", None, None,
         _count("bit_columns_bytes", lambda a, r: len(a[0]) * a[1])),
        ("ucf.family.SetFamily", "__post_init__", "family.init", None,
         _count("init_masks", lambda a, r: len(a[0].masks))),
        ("ucf.family.SetFamily", "is_separating", None, None, _separating),
        ("ucf.constructions", "intermediate", "constructions.intermediate",
         _kernel_snapshot, _intermediate),
        ("ucf.search", "intermediate", "constructions.intermediate",
         _kernel_snapshot, _intermediate),
        ("ucf", "intermediate", "constructions.intermediate", _kernel_snapshot, _intermediate),
        ("ucf.constructions", "min_weight_upper", "bounds", None, None),
        ("ucf.search", "_dfs_masks", None, None, None),
        ("ucf.search", "_dfs_matches_filter", "search.dfs_gate", None, None),
        ("ucf.search", "_families", "search.enumerate", None, None),
        ("ucf.search", "canonical_form", "search.canonical_form", None,
         _count("perms", lambda a, r: math.factorial(a[0].n))),
        ("ucf", "canonical_form", "search.canonical_form", None,
         _count("perms", lambda a, r: math.factorial(a[0].n))),
        ("ucf.cli", "min_weight_search", "search.min_weight_search",
         _separating_snapshot, _min_weight_search),
        ("ucf", "min_weight_search", "search.min_weight_search",
         _separating_snapshot, _min_weight_search),
        ("ucf", "sweep_constructions", "search.sweep", None, None),
        ("ucf.cli", "family_to_dict", "io.family_to_dict", None, None),
        ("ucf.cli", "main", "cli.main", None, None),
    ]
    specs += [("ucf.search", name, "bounds", None, None) for name in BOUNDS_NAMES]
    specs += [("ucf.family.SetFamily", name, "family.invariants", None, None)
              for name in INVARIANTS]
    specs += [("ucf.search.SUITES", name, f"search.suite.{name}", None, _suite(name))
              for name in SUITE_NAMES]
    return specs


def _resolve(path):
    """Import the longest module prefix of a dotted path, then walk
    attributes; None when any step is missing."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def _get(owner, key):
    if isinstance(owner, dict):
        return owner.get(key)
    return owner.__dict__.get(key) if isinstance(owner, type) else getattr(owner, key, None)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.run = -1
        self.installed: set[str] = set()   # "owner.key" targets wrapped
        self.hook_errors: set[str] = set()
        self._saved: list[tuple] = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        frame = [self._next_id, name, time.perf_counter_ns(), 0,
                 self.stack[-1][0] if self.stack else -1]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter_ns()
        self.stack.pop()
        span_id, name, start, child_ns, parent = frame
        duration = end - start
        if self.stack:
            self.stack[-1][3] += duration
        self.calls[name] += 1
        self.self_s[name] += (duration - child_ns) / 1e9
        self.spans.append((span_id, name, start, end, parent, self.run))

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, label, span, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(tracer, args) if before else None
            frame = tracer.enter(span) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if frame is not None:
                    tracer.exit(frame)
            if after:
                try:
                    after(tracer, args, result, state)
                except Exception:   # a changed signature must not break the run
                    tracer.hook_errors.add(label)
            return result

        return wrapper

    def _wrap_dfs(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts["dfs_nodes"] += 1
                yield item

        return wrapper

    def install(self):
        for path, key, span, before, after in _specs():
            owner = _resolve(path)
            fn = _get(owner, key) if owner is not None else None
            if fn is None:
                continue
            label = f"{path}.{key}"
            if key == "_dfs_masks":
                wrapped = self._wrap_dfs(fn)
            else:
                wrapped = self._wrap(fn, label, span, before, after)
            _set(owner, key, wrapped)
            self._saved.append((owner, key, fn))
            self.installed.add(label)

    def uninstall(self):
        for owner, key, fn in reversed(self._saved):
            _set(owner, key, fn)
        self._saved.clear()

    def has(self, *labels):
        """True when every label was wrapped and its hook never failed."""
        return all(l in self.installed and l not in self.hook_errors for l in labels)

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "fields": [
                "id", "name", "start_ns", "end_ns", "parent", "run"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run; absent when a wrapper the
    metric needs could not be installed."""
    out: dict[str, tuple[float, str]] = {}
    c = tr.counts

    def put(name, value, unit, *labels):
        if tr.has(*labels):
            out[name] = (value, unit)

    def span(prefix, span_name, *labels, calls=True):
        if calls:
            put(f"{prefix}.calls", tr.calls[span_name], "count", *labels)
        put(f"{prefix}.self_s", tr.self_s[span_name], "s", *labels)

    fam_sig, fam_closed = "ucf.family.signature_groups", "ucf.family.masks_union_closed"
    span("bitops.signature_groups", "bitops.signature_groups", fam_sig)
    put("bitops.signature_groups.cells", c["signature_cells"], "count", fam_sig)
    put("bitops.bit_columns.bytes", c["bit_columns_bytes"], "bytes", "ucf.bitops.bit_columns")
    span("bitops.masks_union_closed", "bitops.masks_union_closed", fam_closed)
    for tier, fn in (("pairwise_py", "_closed_pairwise_py"), ("table", "_closed_by_table"),
                     ("compress", "_compress"), ("pairwise_np", "_closed_pairwise_np")):
        put(f"bitops.tier.{tier}.calls", c[f"tier.{tier}"], "count", f"ucf.bitops.{fn}")

    init = "ucf.family.SetFamily.__post_init__"
    span("family.init", "family.init", init)
    put("family.init.masks", c["init_masks"], "count", init)
    put("family.invariants.self_s", tr.self_s["family.invariants"], "s",
        *(f"ucf.family.SetFamily.{name}" for name in INVARIANTS))

    build = ("ucf.search.intermediate", "ucf.constructions.intermediate")
    span("constructions.intermediate", "constructions.intermediate", *build)
    builds = c["general_builds"]
    put("constructions.kernel_calls_per_build",
        c["general_kernel_calls"] / builds if builds else 0.0, "calls/build",
        *build, fam_sig, fam_closed)

    span("bounds", "bounds", *(f"ucf.search.{name}" for name in BOUNDS_NAMES))

    put("search.dfs.nodes", c["dfs_nodes"], "count", "ucf.search._dfs_masks")
    examined = c["examined"]
    put("search.separating_ratio", c["search_separating"] / examined if examined else 0.0,
        "ratio", "ucf.cli.min_weight_search", "ucf.family.SetFamily.is_separating")
    span("search.canonical_form", "search.canonical_form", "ucf.search.canonical_form")
    put("search.canonical_form.perms", c["perms"], "count", "ucf.search.canonical_form")
    for name in SUITE_NAMES:
        label = f"ucf.search.SUITES.{name}"
        put(f"search.suite.{name}.self_s", tr.self_s[f"search.suite.{name}"], "s", label)
        put(f"search.suite.{name}.families_checked",
            c[f"suite.{name}.families_checked"], "count", label)
    put("search.dfs_gate.self_s", tr.self_s["search.dfs_gate"], "s",
        "ucf.search._dfs_matches_filter")
    put("search.enumerate.self_s", tr.self_s["search.enumerate"], "s", "ucf.search._families")
    put("search.min_weight_search.self_s", tr.self_s["search.min_weight_search"], "s",
        "ucf.cli.min_weight_search")
    put("search.sweep.self_s", tr.self_s["search.sweep"], "s", "ucf.sweep_constructions")
    put("io.family_to_dict.self_s", tr.self_s["io.family_to_dict"], "s",
        "ucf.cli.family_to_dict")
    put("cli.main.self_s", tr.self_s["cli.main"], "s", "ucf.cli.main")
    put("trace.spans", len(tr.spans), "count")
    return out
