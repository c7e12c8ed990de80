"""Fixed reference work that measures the machine's current speed.

The speed of a shared machine drifts by 20-40% over minutes, and not evenly:
interpreted Python slows more than BLAS-bound NumPy. So wall times of the
same code taken in different runs spread wider than any useful bound. The
benchmark runs a reference kernel of the same kind of work right before and
right after every timed call, and scales the call's time by the kernel's
nominal time over the mean of the two: the result is the call's time at the
speed the machine had when the nominal times were measured.

- `EpochReference` is a few forward and backward passes and RMSprop steps of
  a network of FsNet's shape (Gumbel-softmax selection of K of d features,
  encoder, classifier, decoder, d-wide reconstruction), in plain NumPy, at
  the workload's shape. It pairs with `train`.
- `ParseReference` parses a delimited table of numbers into an array. It
  pairs with the set-up (`load_delimited`).

The kernels run in a process of their own (`ReferenceProcess`), which waits
while the benchmark's calls run. In the benchmark's process their speed
would depend on the state the program left behind: after one `train` call
the same kernel ran 1.7 times faster there, because its large temporaries
came from memory the program had already mapped. Neither kernel uses fsnet,
so a change to fsnet moves the scaled times as much as the raw ones. Do not
change this file in a change that claims a gain: the scaled times of two
commits are comparable only with the same reference.

    python3 reference.py N D   # serve: reads "epoch" or "parse" lines, prints seconds
"""

from __future__ import annotations

import csv
import gc
import statistics
import subprocess
import sys
import time

import numpy as np

# Nominal seconds of one ParseReference.run(), measured on a 2-vCPU Intel
# Xeon VM with Python 3.11.7, NumPy 2.4.6 and scipy-openblas 0.3.31 at one
# BLAS thread. Those of EpochReference depend on the shape and are given
# with each workload (workloads.py).
PARSE_NOMINAL_S = 0.016


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 0.2 * x)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class EpochReference:
    """FsNet-shaped training steps on n rows of d features: enough of them
    to cover about CELLS values of n x d, and at most MAX_STEPS."""

    CELLS = 500_000
    MAX_STEPS = 20
    WIDTHS = (10, 64, 32, 16)  # K, then the encoder; the decoder mirrors it
    CLASSES = 2

    def __init__(self, n: int, d: int):
        rng = np.random.default_rng(20010832)
        self.n, self.d = n, d
        self.steps = max(2, min(self.MAX_STEPS, -(-self.CELLS // (n * d))))
        self.x = rng.standard_normal((n, d))
        self.y = np.eye(self.CLASSES)[rng.integers(0, self.CLASSES, n)]
        k = self.WIDTHS[0]
        self.noise = rng.gumbel(size=(self.steps, k, d))
        self.masks = rng.random((self.steps, n, max(self.WIDTHS))) > 0.2
        dims = list(self.WIDTHS)
        self.enc = [rng.standard_normal((b, a)) * 0.1 for a, b in zip(dims, dims[1:])]
        self.cls = rng.standard_normal((self.CLASSES, dims[-1])) * 0.1
        back = dims[::-1][:-1]  # 16 -> 32 -> 64
        self.dec = [rng.standard_normal((b, a)) * 0.1 for a, b in zip(back, back[1:])]
        self.params0 = {"select": rng.standard_normal((k, d)) * 0.01,
                        "recon": rng.standard_normal((back[-1], d)) * 0.01}

    def run(self) -> float:
        p = {k: v.copy() for k, v in self.params0.items()}
        cache = {k: np.zeros_like(v) for k, v in p.items()}
        total = 0.0
        for step in range(self.steps):
            gates = _softmax((p["select"] + self.noise[step]) / 0.5)  # K x d
            z = self.x @ gates.T  # n x K
            acts, h = [], z
            for w in self.enc:
                pre = h @ w.T
                acts.append(pre)
                h = _leaky(pre) * self.masks[step, :, : pre.shape[1]]
            probs = _softmax(h @ self.cls.T)
            r = h
            for w in self.dec:
                r = _leaky(r @ w.T)
            recon = np.tanh(r @ p["recon"])  # n x d
            diff = recon - self.x
            pick = np.clip((probs * self.y).sum(axis=1), 1e-12, None)
            total += float(np.square(diff).mean() - np.log(pick).mean())
            g_pre = 2.0 * diff * (1.0 - recon * recon) / diff.size  # back through the reconstruction
            grads = {"recon": r.T @ g_pre}
            g_h = (probs - self.y) @ self.cls / self.n + (g_pre @ p["recon"].T)[:, : h.shape[1]]
            for pre, w in zip(reversed(acts), reversed(self.enc)):
                g_h = (g_h * np.where(pre > 0, 1.0, 0.2)) @ w
            g_gates = g_h.T @ self.x  # K x d
            inner = (g_gates * gates).sum(axis=1, keepdims=True)
            grads["select"] = gates * (g_gates - inner) / 0.5
            for name, g in grads.items():  # RMSprop
                cache[name] = 0.9 * cache[name] + 0.1 * g * g
                p[name] -= 1e-3 * g / (np.sqrt(cache[name]) + 1e-8)
        return total


class ParseReference:
    """Parse a fixed table of numbers from delimited text into an array,
    cell by cell, as `load_delimited` does."""

    def __init__(self):
        rng = np.random.default_rng(20010832)
        self.lines = [",".join(repr(float(v)) for v in row) + "\n" for row in rng.standard_normal((30, 1000))]

    def run(self) -> float:
        x = np.empty((len(self.lines), 1000))
        for r, line in enumerate(self.lines):
            for c, cell in enumerate(next(csv.reader([line]))):
                x[r, c] = float(cell)
        return float(x.sum())


def time_reference(reference) -> float:
    """Median seconds of one reference.run() over three runs now."""
    gc.collect()
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        reference.run()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scaled(seconds: float, nominal_s: float, ref_before: float, ref_after: float) -> float:
    """`seconds` at the machine speed of `nominal_s`, from the reference
    timings right before and right after the call."""
    return seconds * nominal_s / ((ref_before + ref_after) / 2.0)


class ReferenceProcess:
    """The reference kernels for an n x d workload, timed on request in a
    process of their own. Use as a context manager: leaving it ends the
    process and waits for it."""

    def __init__(self, n: int, d: int):
        self._proc = subprocess.Popen(
            [sys.executable, "-s", __file__, str(n), str(d)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def time(self, kind: str) -> float:
        """Seconds of one `kind` ("epoch" or "parse") reference run now."""
        self._proc.stdin.write(kind + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with code {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()  # end of input ends serve()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "ReferenceProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(n: int, d: int) -> None:
    kernels = {"epoch": EpochReference(n, d), "parse": ParseReference()}
    for kernel in kernels.values():
        kernel.run()  # warm-up
    for line in sys.stdin:
        print(repr(time_reference(kernels[line.strip()])), flush=True)


if __name__ == "__main__":
    serve(int(sys.argv[1]), int(sys.argv[2]))
