"""In-memory span tracer that wraps martinpoly functions from outside.

`from .multigraph import canonical_form` copies the function into each
importing module, so a hook replaces every binding of the target object in
every loaded martinpoly module (and on its class, for methods).  A hook
whose target no longer exists is skipped, and the metrics built on it are
reported as absent.

Each call becomes a span (id, name, start, end, parent).  Generators (the
cut scan) are timed per item: their span carries the summed item time as
its busy time instead of end - start, since the consumer runs in between.
Self time is busy time minus the busy time of direct children.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "martinpoly"


class Tracer:
    def __init__(self):
        self.spans = []              # (id, name, start, end, parent, busy)
        self.stack = []              # [span id, child busy time]
        self.next_id = 0
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.counts = Counter()
        self.installed = set()

    def _finish(self, sid, name, start, end, parent, busy, child):
        self.spans.append((sid, name, start, end, parent, busy))
        self.busy_s[name] += busy
        self.self_s[name] += busy - child

    def wrap(self, name, fn, count=None):
        """Time each call of fn as a span; count(args, kwargs, result) adds
        to the counters."""
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self._finish(sid, name, start, end, parent, end - start,
                             frame[1])
            self.counts[name] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Time each item a generator yields; items are counted as
        `<name>.items`."""
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            sid = self.next_id
            self.next_id += 1
            owner = stack[-1] if stack else None
            parent = owner[0] if owner else -1
            start = clock()
            busy = 0.0
            items = 0
            self.counts[name] += 1
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        busy += dt
                        if owner is not None:
                            owner[1] += dt
                    items += 1
                    yield item
            finally:
                self.counts[name + ".items"] += items
                self._finish(sid, name, start, clock(), parent, busy, 0.0)

        return traced

    def hook(self, module, path, name, count=None, generator=False):
        """Wrap the object at module.path (e.g. "InvariantCache.get") in
        every binding; returns False when the target does not exist."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return False
        owner, attr = mod, path
        if "." in path:
            cls_name, attr = path.split(".", 1)
            owner = getattr(mod, cls_name, None)
        target = getattr(owner, attr, None) if owner is not None else None
        if target is None:
            return False
        wrapper = (self.wrap_generator(name, target) if generator
                   else self.wrap(name, target, count))
        if owner is not mod:
            setattr(owner, attr, wrapper)
        for mod_name, m in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(m).items()):
                if value is target:
                    setattr(m, key, wrapper)
        self.installed.add(name)
        return True

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tbusy\n")
            for span in sorted(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%.9f\n" % span)
