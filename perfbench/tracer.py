"""Per-layer tracing of the diagramalg library, installed from outside it.

The tracer wraps the public functions of each library module, plus a few
constructors and operators named in METHODS, and replaces every binding of
each wrapped object across the ``diagramalg.*`` namespaces.  A wrapped call
records a span only while a request is open; spans are aggregated per
(request, parent span name, span name), so memory grows with the number of
requests and call edges, not with the number of calls.

Self time of a span is its duration minus the durations of its direct
child spans.
"""

import functools
import importlib
import inspect
import sys
import time

MODULES = ("diagrams", "coeff", "partitions", "symrep", "irreps", "characters", "cli")

# (module, class, attribute) -> span name.  ``__init__`` counts constructions.
METHODS = {
    ("diagrams", "Diagram", "__init__"): "diagrams.Diagram",
    ("coeff", "LaurentPoly", "__init__"): "coeff.LaurentPoly",
    ("coeff", "LaurentPoly", "__mul__"): "coeff.LaurentPoly.mul",
    ("coeff", "LaurentPoly", "__add__"): "coeff.LaurentPoly.add",
    ("coeff", "Element", "__mul__"): "coeff.Element.mul",
    ("characters", "CharacterTable", "factor"): "characters.CharacterTable.factor",
}

# Spans whose distinct argument sets are counted, with the function that
# turns the call arguments into a hashable key.
DISTINCT = {
    "characters.f_coeff": lambda args, kwargs: (args, tuple(sorted(kwargs.items()))),
    "irreps.conjugate": lambda args, kwargs: hash(args),
}

ROOT = "request"


class Tracer:
    """Aggregates spans by (request, parent, name)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.request = None
        self.stack = []
        # (request, parent, name) -> [calls, total_s, self_s, errors]
        self.edges = {}
        self.requests = {}
        self.distinct = {name: set() for name in DISTINCT}

    def begin(self, request_id):
        self.request = request_id
        self.stack = [[ROOT, self.clock(), 0.0]]

    def end(self):
        name, start, child = self.stack.pop()
        total = self.clock() - start
        self.requests[self.request] = (total, total - child)
        self.request = None
        self.stack = []

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self, failed=False):
        end = self.clock()
        name, start, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1]
        parent[2] += duration
        key = (self.request, parent[0], name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0, 0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - child
        edge[3] += failed

    def call(self, name, fn, args, kwargs):
        if self.request is None:
            return fn(*args, **kwargs)
        seen = self.distinct.get(name)
        if seen is not None:
            seen.add(DISTINCT[name](args, kwargs))
        self.enter(name)
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            self.exit(failed)

    def totals(self):
        """name -> [calls, total_s, self_s, errors] summed over all edges."""
        out = {}
        for (_, _, name), (calls, total, self_s, errors) in self.edges.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
            acc[3] += errors
        return out


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def library_modules():
    """The traced modules, resolved through importlib: the package attribute
    ``diagramalg.partitions`` is the partitions() function, not the module."""
    return {name: importlib.import_module("diagramalg." + name) for name in MODULES}


def cached_functions():
    """Every lru_cache-wrapped function of the library, as span-style names,
    found through a tracing wrapper if one is installed."""
    out = {}
    for modname, mod in library_modules().items():
        for attr, obj in vars(mod).items():
            if not hasattr(obj, "cache_info"):
                obj = getattr(obj, "__wrapped__", None)
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out["%s.%s" % (modname, attr)] = obj
    return out


def install(tracer):
    """Wrap the library's public functions and the METHODS; return the map
    span name -> original object."""
    modules = library_modules()
    originals = {}
    for modname, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or inspect.isclass(obj):
                continue
            if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                originals["%s.%s" % (modname, attr)] = obj
    for (modname, clsname, attr), name in METHODS.items():
        originals[name] = vars(getattr(modules[modname], clsname))[attr]
    # originals holds every wrapped object alive, so ids stay unique
    replacement = {id(obj): _wrap(tracer, name, obj) for name, obj in originals.items()}

    # Rebind every alias: functions imported into other modules and into the
    # package, and class attributes such as __rmul__ = __mul__.
    namespaces = [m for n, m in sorted(sys.modules.items()) if n == "diagramalg" or n.startswith("diagramalg.")]
    classes = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in replacement:
                setattr(ns, attr, replacement[id(obj)])
            if inspect.isclass(obj) and obj.__module__.startswith("diagramalg"):
                classes.append(obj)
    for cls in set(classes):
        for attr, obj in list(vars(cls).items()):
            if id(obj) in replacement:
                setattr(cls, attr, replacement[id(obj)])
    return originals

