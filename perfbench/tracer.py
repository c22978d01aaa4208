"""Run one lexcount command in this interpreter and record where its time
goes, without changing what it prints or returns.

    python3 tracer.py spans OUT.json -- ARGV...
    python3 tracer.py calls OUT.json -- ARGV...

``spans`` times ``import lexcount.cli``, then wraps every public function
of every ``lexcount`` module, everywhere callers look the name up (module
globals, re-exports and module-level dicts such as ``qstats.STATS``), and
calls ``lexcount.cli.main(ARGV)``.  Each wrapped call records a span
(name, parent, start, end); a call that returns a generator gets a second
span that is busy only while the generator runs.  Spans stay in memory
and are written to OUT.json at exit, together with per-layer totals.

``calls`` runs the command under cProfile instead and writes exact call
counts of every ``lexcount`` function, including tracker methods, which
are too hot to wrap.  Its timings are not used.

The program itself is not modified: all instrumentation lives here.

Only ``sys`` and ``time`` are imported before ``import lexcount.cli`` is
timed.  Every other module the tracer needs is imported after it, so
modules that lexcount shares with the tracer (``json`` pulls in ``re``,
``enum`` and ``functools``) are counted in ``import_s``.
"""
import sys
import time

T_START = time.perf_counter()

perf = time.perf_counter

# public functions that form a sub-layer of their module
SUB_LAYERS = {
    "engine.count_extensions": "engine.dp",
    "perms.inv": "perms.stat", "perms.maj": "perms.stat",
    "perms.format_perm": "perms.format",
}
MODULE_LAYERS = {"engine": "engine.oracle"}


def layer_of(name: str) -> str:
    """Layer of a wrapped function called ``module.function``."""
    if name in SUB_LAYERS:
        return SUB_LAYERS[name]
    module = name.split(".", 1)[0]
    return MODULE_LAYERS.get(module, module)


class Recorder:
    """Span storage: one entry per call, in flat arrays."""

    def __init__(self):
        from array import array
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.stack = [-1]
        self.formula_calls = 0
        self.formula_hits = 0
        self.results = 0

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        from types import GeneratorType
        rec = self
        nid = self.name_id(name)
        gen_nid = self.name_id(name + "/iter")
        counts_results = name == "engine.avoiders"
        is_dispatch = name == "formulas.count_formula"
        names, parent, start = self.name, self.parent, self.start
        end, busy, stack = self.end, self.busy, self.stack

        def traced_iter(gen):
            sid = -1
            while True:
                t0 = perf()
                if sid < 0:
                    sid = len(start)
                    names.append(gen_nid)
                    parent.append(stack[-1])
                    start.append(t0)
                    end.append(t0)
                    busy.append(0.0)
                stack.append(sid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    t1 = perf()
                    busy[sid] += t1 - t0
                    end[sid] = t1
                if counts_results:
                    rec.results += 1
                yield item

        def wrapper(*args, **kwargs):
            sid = len(start)
            names.append(nid)
            parent.append(stack[-1])
            t0 = perf()
            start.append(t0)
            end.append(t0)
            busy.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                t1 = perf()
                end[sid] = t1
                busy[sid] = t1 - t0
            if is_dispatch:
                rec.formula_calls += 1
                rec.formula_hits += result is not None
            if (isinstance(result, GeneratorType)
                    and result.gi_code is not traced_iter.__code__):
                return traced_iter(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def summary(self) -> dict:
        """Self time and entry count per layer.  A span's self time is its
        busy time minus the busy time of its direct children; an entry is a
        span whose parent belongs to another layer."""
        layer_ids = [layer_of(n.removesuffix("/iter")) for n in self.names]
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.busy[i]
        out: dict[str, dict] = {}
        for i in range(n):
            layer = layer_ids[self.name[i]]
            slot = out.setdefault(layer, {"self_s": 0.0, "entries": 0})
            slot["self_s"] += self.busy[i] - child[i]
            p = self.parent[i]
            if self.names[self.name[i]].endswith("/iter"):
                continue  # resuming a generator is not a new entry
            if p < 0 or layer_ids[self.name[p]] != layer:
                slot["entries"] += 1
        return out

    def spans(self, t0: float) -> dict:
        us = lambda xs: [round((x - t0) * 1e6) for x in xs]  # noqa: E731
        return {"names": self.names, "name": list(self.name),
                "parent": list(self.parent), "start_us": us(self.start),
                "end_us": us(self.end),
                "busy_us": [round(b * 1e6) for b in self.busy]}


def _public_callables(module):
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or isinstance(obj, type):
            continue
        if (callable(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


class Instrumenter:
    """Installs wrappers in every loaded ``lexcount`` module, and in
    modules imported later, through a meta-path hook."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self.originals: list = []  # keeps originals alive for the ids

    def instrument(self, module) -> None:
        short = module.__name__.split(".", 1)[-1]
        for attr, fn in _public_callables(module):
            if id(fn) not in self.wrappers:
                self.originals.append(fn)
                self.wrappers[id(fn)] = self.rec.wrap(f"{short}.{attr}", fn)
        for mod in [m for n, m in sys.modules.items()
                    if n == "lexcount" or n.startswith("lexcount.")]:
            self._redirect(mod)

    def _redirect(self, module) -> None:
        ns = vars(module)
        for attr, obj in list(ns.items()):
            w = self.wrappers.get(id(obj))
            if w is not None:
                ns[attr] = w
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for k, v in list(obj.items()):
                    w = self.wrappers.get(id(v))
                    if w is not None:
                        obj[k] = w

    def install(self) -> None:
        for name in [n for n in sys.modules
                     if n == "lexcount" or n.startswith("lexcount.")]:
            self.instrument(sys.modules[name])
        sys.meta_path.insert(0, _LateImportHook(self))


class _LateImportHook:
    def __init__(self, inst: Instrumenter):
        self.inst = inst

    def find_spec(self, name, path, target=None):
        if not name.startswith("lexcount."):
            return None
        from importlib.machinery import PathFinder
        spec = PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        loader_exec = spec.loader.exec_module
        inst = self.inst

        def exec_module(module):
            loader_exec(module)
            inst.instrument(module)

        spec.loader.exec_module = exec_module
        return spec


def profile_counts(prof) -> dict[str, int]:
    """Call counts of lexcount functions from a finished cProfile run,
    keyed ``module.qualname``."""
    import os
    out: dict[str, int] = {}
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        path = code.co_filename.replace(os.sep, "/")
        if "/lexcount/" not in path:
            continue
        module = path.rsplit("/", 1)[-1].removesuffix(".py")
        key = f"{module}.{code.co_qualname}"
        out[key] = out.get(key, 0) + entry.callcount
    return out


def main() -> int:
    mode, out_path, sep, *argv = sys.argv[1:]
    if mode not in ("spans", "calls") or sep != "--":
        print("usage: tracer.py spans|calls OUT.json -- ARGV...",
              file=sys.stderr)
        return 64
    t0 = perf()
    import lexcount.cli as cli
    t_import = perf()
    import json
    import os
    payload: dict = {"mode": mode, "import_s": t_import - t0,
                     "startup_s": T_START - float(
                         os.environ.get("PERFBENCH_SPAWN", T_START))}
    code = 1
    try:
        if mode == "spans":
            rec = Recorder()
            Instrumenter(rec).install()
            main_fn = cli.main  # wrapped: the root span
            t_main = perf()
            code = main_fn(argv)
            payload["main_s"] = perf() - t_main
            payload["layers"] = rec.summary()
            payload["formula_calls"] = rec.formula_calls
            payload["formula_hits"] = rec.formula_hits
            payload["results"] = rec.results
            payload["spans"] = rec.spans(t0)
        else:
            import cProfile
            prof = cProfile.Profile()
            t_main = perf()
            prof.enable()
            try:
                code = cli.main(argv)
            finally:
                prof.disable()
            payload["main_s"] = perf() - t_main
            payload["calls"] = profile_counts(prof)
    finally:
        sys.stdout.flush()
        payload["exit"] = code
        with open(out_path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
