"""Span tracing of sscope from outside the program.

The tracer replaces public functions of sscope's modules with wrappers that
record a span (name, start, end, parent, trial) around each call; nothing
under src/ changes. Spans stay in memory until the run dumps them. A span's
self time is its duration minus the durations of its direct children: calls
are single-threaded and nest, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


def targets():
    """(span name, owner, attribute) of every traced entry point, by layer."""
    import sscope.counterfact as cf
    import sscope.interventions as iv
    import sscope.metrics as me
    import sscope.netcore as nc
    import sscope.optim as op
    import sscope.skewlab as sl
    import sscope.stats as st
    from sscope.expcli import report, runner, store

    found = [
        ("netcore.loss_and_grad", nc, "loss_and_grad"),
        ("netcore.evaluate", nc, "evaluate"),
        ("netcore.sync_blocks", nc, "sync_blocks"),
        ("netcore.save_checkpoint", nc, "save_checkpoint"),
        ("optim.step", op.Optimizer, "step"),
        ("skewlab.data_build", sl, "gen_clean_synthetic"),
        ("skewlab.data_build", sl, "make_fully_skewed"),
        ("skewlab.data_build", sl, "apply_frequency"),
        ("skewlab.paired_batches", sl, "paired_batches"),
        ("counterfact.train", cf, "train_family"),
        ("counterfact.train", cf, "train_pair"),
        ("counterfact.train", cf, "train_single"),
        ("interventions.retrain", iv, "retrain_with_intervention"),
        ("interventions.retrain", iv, "freeze_protocol"),
        ("expcli.store.append", store.ResultsStore, "append"),
        ("expcli.store.load", store.ResultsStore, "load"),
        ("expcli.report", report, "write_report"),
        ("expcli.runner", runner, "run_grid"),
    ]
    for layer, module in (("metrics", me), ("stats", st)):
        found += [(layer, module, name) for name in module.__all__
                  if inspect.isfunction(getattr(module, name))]
    return found


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, trial]
        self.trial = None
        self._stack = []
        self._undo = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.trial])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # the work happens per item, so each next() is one span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    index = self._open(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def install(self):
        """Wrap every target, in its owner and in each sscope module that
        imported it by name."""
        for name, owner, attr in targets():
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original)
            holders = [(owner, attr)]
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "sscope" or module is owner:
                    continue
                holders += [(module, key) for key, value in vars(module).items()
                            if value is original]
            for holder, key in holders:
                setattr(holder, key, wrapped)
                self._undo.append((holder, key, original))

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def by_name(self, trial):
        """name -> (calls, total seconds, self seconds) over one trial's spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, span_trial) in enumerate(self.spans):
            if span_trial != trial:
                continue
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[index]
        return {name: tuple(row) for name, row in out.items()}

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")
