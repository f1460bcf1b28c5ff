"""In-memory span tracer wrapped around hermlat's layer boundaries.

Nothing under ``src/`` is touched: ``Tracer.install`` replaces selected
public functions (and the copies other modules imported under the same
name, e.g. ``transference.successive_minima``) with wrappers that record a
span (name, start, end, parent, bundle id) per call, and ``uninstall``
puts the originals back.  Spans stay in memory; ``layer_metrics`` turns
them into the per-layer numbers after the run.

Layers are this repository's modules.  ``slopes``, ``heights``, ``cli``
and ``fixtures`` are not traced: they are closed-form, thin front ends or
set-up only.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

from hermlat import bundles, duality, exactlinalg, minima, numberfield, reports, transference
from hermlat.minima import BudgetExhausted
from hermlat.transference import BundleChecks  # the class, even while a subclass is installed

from gate import PROFILE_KEYS

# layers with spans inside checks; numberfield is only counted there
SPAN_LAYERS = ("transference", "minima", "bundles", "duality", "exactlinalg", "reports")


class Span:
    __slots__ = ("name", "start", "end", "parent", "bundle", "info", "child_s")

    def __init__(self, name, start, parent, bundle):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.bundle = bundle
        self.info = None
        self.child_s = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


_ENUMERATE_SIGNATURE = inspect.signature(minima.enumerate_ellipsoid)


def _enumerate_info(args, kwargs, result, error):
    call = _ENUMERATE_SIGNATURE.bind(*args, **kwargs).arguments
    # the same Gram matrix and radius enumerated again within a bundle is a repeat
    key = (hashlib.blake2b(call["gram"].tobytes(), digest_size=16).digest(), call["radius_sq"])
    if error is not None:  # BudgetExhausted: every node within the budget was visited
        return {"nodes": call["budget"], "candidates": 0, "key": key}
    vectors, nodes = result
    return {"nodes": nodes, "candidates": len(vectors), "key": key}


def _profile_info(args, kwargs, result, error):
    """The profile key, e.g. "lambda_vee"."""
    return args[1] if len(args) > 1 else kwargs["key"]


def _minima_info(args, kwargs, result, error):
    """Radius used over the last certified minimum, None if uncertified."""
    if error is None and result.certified:
        return result.radius_used / math.exp(result.values[-1])
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.bundle = None  # identifier shared by the spans of one bundle
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn, info=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, clock(), parent, self.bundle)
            spans.append(span)
            stack.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BudgetExhausted as e:
                error = e
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                if info is not None:
                    span.info = info(args, kwargs, result, error)

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------------

    def _patch_function(self, module, attr, wrapper):
        """Replace module.attr and every hermlat-module binding of the same object."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("hermlat"):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        span, count = self._span_wrapper, self._count_wrapper
        fn = self._patch_function
        fn(transference, "check_all", span("transference.check_all", transference.check_all))
        self._patch_method(BundleChecks, "profile", span(
            "transference.profile", BundleChecks.profile, _profile_info))
        self._patch_method(BundleChecks, "transfer", span(
            "transference.transfer", BundleChecks.transfer))
        fn(minima, "successive_minima",
           span("minima.successive_minima", minima.successive_minima, _minima_info))
        fn(minima, "enumerate_ellipsoid",
           span("minima.enumerate_ellipsoid", minima.enumerate_ellipsoid, _enumerate_info))
        for name in ("restrict_scalars", "dual_bundle"):
            fn(bundles, name, span(f"bundles.{name}", getattr(bundles, name)))
        for name in ("trace_dual", "transfer_vector", "trace_module"):
            fn(duality, name, span(f"duality.{name}", getattr(duality, name)))
        fn(numberfield, "build_field", span("numberfield.build_field", numberfield.build_field))
        self._patch_method(numberfield.FieldElement, "inverse", count(
            "numberfield.inverse", numberfield.FieldElement.inverse))
        for name, obj in vars(exactlinalg).copy().items():
            if (inspect.isfunction(obj) and obj.__module__ == exactlinalg.__name__
                    and not name.startswith("_")):
                fn(exactlinalg, name, span(f"exactlinalg.{name}", obj))
        fn(reports, "render_report", span("reports.render_report", reports.render_report))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_metrics(tracer: Tracer, n: int) -> dict[str, float]:
    """Per-layer numbers from the spans of the traced bundles.

    Times and counts are per traced bundle (``n`` of them).  ``*_s`` metrics of a single
    function are its self time (its span minus its traced children), except
    ``transference.check_all_s`` and ``transference.profile_s.<key>``, which
    are inclusive.
    """
    spans = [s for s in tracer.spans if s.bundle is not None]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_total(name):
        return sum(s.self_s for s in by_name[name])

    def incl_total(name):
        return sum(s.duration for s in by_name[name])

    enum = by_name["minima.enumerate_ellipsoid"]
    nodes = sum(s.info["nodes"] for s in enum)
    enum_s = incl_total("minima.enumerate_ellipsoid")

    # final-round share: the last enumeration of each successive_minima call
    rounds = defaultdict(list)
    for s in enum:
        if s.parent is not None and s.parent.name == "minima.successive_minima":
            rounds[id(s.parent)].append(s.info["nodes"])
    round_nodes = sum(sum(r) for r in rounds.values())
    final_nodes = sum(r[-1] for r in rounds.values())

    overshoots = [s.info for s in by_name["minima.successive_minima"] if s.info is not None]

    seen: set = set()
    repeats = repeat_nodes = 0
    for s in enum:
        key = (s.bundle, s.info["key"])
        if key in seen:
            repeats += 1
            repeat_nodes += s.info["nodes"]
        seen.add(key)

    def profile_key(span):
        p = span.parent
        while p is not None and p.name != "transference.profile":
            p = p.parent
        return p.info if p is not None else None

    nodes_by_key = Counter()
    for s in enum:
        nodes_by_key[profile_key(s)] += s.info["nodes"]

    profile_spans = by_name["transference.profile"]
    computed_ids = {id(s.parent) for s in by_name["minima.successive_minima"]}
    computed = [s for s in profile_spans if id(s) in computed_ids]
    profile_s = Counter()
    for s in computed:
        profile_s[s.info] += s.duration

    m = {
        "minima.nodes": nodes / n,
        "minima.enumerate_s": enum_s / n,
        "minima.enumerate_calls": len(enum) / n,
        "minima.ns_per_node": enum_s / nodes * 1e9 if nodes else 0.0,
        "minima.candidates": sum(s.info["candidates"] for s in enum) / n,
        "minima.select_s": self_total("minima.successive_minima") / n,
        "minima.final_round_node_share": final_nodes / round_nodes if round_nodes else 0.0,
        "minima.radius_overshoot": statistics.median(overshoots) if overshoots else 0.0,
        "minima.repeat_enumerations": repeats / n,
        "minima.repeat_nodes": repeat_nodes / n,
    }
    for key in PROFILE_KEYS:
        m[f"minima.nodes.{key}"] = nodes_by_key[key] / n
    m["transference.check_all_s"] = incl_total("transference.check_all") / n
    for key in PROFILE_KEYS:
        m[f"transference.profile_s.{key}"] = profile_s[key] / n
    m["transference.profile_calls"] = len(profile_spans) / n
    m["transference.profile_computed"] = len(computed) / n
    m["transference.profile_reuse"] = (len(profile_spans) - len(computed)) / n
    m["bundles.restrict_scalars_s"] = self_total("bundles.restrict_scalars") / n
    m["bundles.dual_bundle_s"] = self_total("bundles.dual_bundle") / n
    m["duality.trace_dual_s"] = self_total("duality.trace_dual") / n
    m["duality.transfer_vector_s"] = self_total("duality.transfer_vector") / n
    m["numberfield.inverse_calls"] = tracer.counts["numberfield.inverse"] / n
    xl = [s for s in spans if s.layer == "exactlinalg"]
    m["exactlinalg.calls"] = len(xl) / n
    m["exactlinalg.s"] = sum(s.self_s for s in xl) / n
    m["reports.render_s"] = incl_total("reports.render_report") / n
    layer_self = Counter()
    for s in spans:
        layer_self[s.layer] += s.self_s
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / n
    setup = [s for s in tracer.spans if s.bundle is None and s.name == "numberfield.build_field"]
    m["numberfield.build_field_s"] = sum(s.duration for s in setup)
    return m


def root_seconds(tracer: Tracer) -> dict:
    """Summed duration of the root spans of each traced bundle."""
    out: Counter = Counter()
    for s in tracer.spans:
        if s.bundle is not None and s.parent is None:
            out[s.bundle] += s.duration
    return out
