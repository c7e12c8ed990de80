"""Dense stacks (encoder, classifier head, decoder) and their one NumPy
pass, the hard-selection forward pass, the embedding-predicted
reconstruction layer, and the one parameter layout that initialization,
counting, loading, the training pass and the loss graph share."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import check_field_types
from .numerics import DimensionError, matmul, softmax
from .rng import RngState


@dataclass(frozen=True)
class Architecture:
    """Layer widths of the full network.

    The default widths give the stack
    d -> n_select -> 64 -> 32 -> 16 (-> n_classes) -> 32 -> 64 -> d.
    """

    n_features: int
    n_select: int
    n_classes: int
    encoder: tuple[int, ...] = (64, 32, 16)
    decoder: tuple[int, ...] = (32, 64)

    def __post_init__(self):
        check_field_types(self)
        if self.n_features < 1 or self.n_select < 1 or self.n_classes < 2:
            raise ValueError(
                f"invalid architecture: d={self.n_features}, K={self.n_select},"
                f" classes={self.n_classes}"
            )
        if self.n_select > self.n_features:
            raise ValueError(
                f"cannot select {self.n_select} of {self.n_features} features"
            )
        if not self.encoder or not self.decoder:
            raise ValueError("encoder and decoder need at least one layer each")
        if any(w < 1 for w in self.encoder + self.decoder):
            raise ValueError("layer widths must be positive")

    @property
    def hidden_width(self) -> int:
        return self.encoder[-1]

    @property
    def recon_width(self) -> int:
        return self.decoder[-1]


@dataclass
class DenseStack:
    """Ordered fully connected layers; weights are (out, in), biases optional.
    The loss graph holds tape leaves in the same slots, and the training
    pass its gradients."""

    weights: list[np.ndarray]
    biases: list[np.ndarray] | None = None


@dataclass
class FsNetParams:
    """Every trainable array of the model, in a fixed order.

    select_w and recon_w are (K, b) and (h', b) in predictor mode; in dense
    mode they address features directly and are (K, d) and (h', d). named()
    is the order that model files, gradients and optimizer slots follow, and
    map() rebuilds the structure in that order.
    """

    select_w: np.ndarray
    encoder: DenseStack
    classifier: DenseStack
    decoder: DenseStack
    recon_w: np.ndarray

    def named(self) -> list[tuple[str, np.ndarray]]:
        out: list[tuple[str, np.ndarray]] = [("select_w", self.select_w)]
        for label, stack in (
            ("encoder", self.encoder),
            ("classifier", self.classifier),
            ("decoder", self.decoder),
        ):
            for i, w in enumerate(stack.weights):
                out.append((f"{label}.{i}", w))
            if stack.biases is not None:
                for i, b in enumerate(stack.biases):
                    out.append((f"{label}.{i}.bias", b))
        out.append(("recon_w", self.recon_w))
        return out

    def arrays(self) -> list[np.ndarray]:
        return [arr for _, arr in self.named()]

    def map(self, fn: Callable) -> "FsNetParams":
        """The same structure holding fn(arr) for every array, with fn called
        in named() order."""

        def stack(s: DenseStack) -> DenseStack:
            ws = [fn(w) for w in s.weights]
            return DenseStack(ws, None if s.biases is None else [fn(b) for b in s.biases])

        return FsNetParams(
            fn(self.select_w),
            stack(self.encoder),
            stack(self.classifier),
            stack(self.decoder),
            fn(self.recon_w),
        )

    def replace_arrays(self, arrays: list[np.ndarray]) -> "FsNetParams":
        """Same structure with new values, in named() order."""
        if len(arrays) != len(self.named()):
            raise DimensionError(f"{len(arrays)} replacement arrays for {len(self.named())}")
        it = iter(arrays)

        def take(template: np.ndarray) -> np.ndarray:
            arr = next(it)
            if arr.shape != template.shape:
                raise DimensionError(
                    f"replacement shape {arr.shape} != expected {template.shape}"
                )
            return arr

        return self.map(take)


def _build_params(
    arch: Architecture,
    embed_size: int,
    mode: str,
    use_bias: bool,
    weight: Callable[[int, int], np.ndarray],
) -> FsNetParams:
    """Parameters in FsNetParams.named() layout; weight(out, in) makes every
    weight matrix, in that order, and biases start at zero."""
    if mode not in ("predictor", "dense"):
        raise ValueError(f"mode must be 'predictor' or 'dense', got {mode!r}")
    width = embed_size if mode == "predictor" else arch.n_features
    select_w = weight(arch.n_select, width)

    def build_stack(dims: list[int]) -> DenseStack:
        ws = [weight(o, i) for i, o in zip(dims[:-1], dims[1:])]
        bs = [np.zeros(o) for o in dims[1:]] if use_bias else None
        return DenseStack(ws, bs)

    encoder = build_stack([arch.n_select, *arch.encoder])
    classifier = build_stack([arch.hidden_width, arch.n_classes])
    decoder = build_stack([arch.hidden_width, *arch.decoder])
    recon_w = weight(arch.recon_width, width)
    return FsNetParams(select_w, encoder, classifier, decoder, recon_w)


def init_params(
    arch: Architecture,
    embed_size: int,
    mode: str,
    rng: RngState,
    use_bias: bool = False,
) -> FsNetParams:
    """Glorot-uniform weights, drawn in a fixed order so a seed pins the model."""

    def glorot(out_dim: int, in_dim: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        return (rng.uniform((out_dim, in_dim)) * 2.0 - 1.0) * bound

    return _build_params(arch, embed_size, mode, use_bias, glorot)


def zeros_params(
    arch: Architecture, embed_size: int, mode: str, use_bias: bool = False
) -> FsNetParams:
    """All-zero parameters with the same structure init_params would produce."""
    return _build_params(arch, embed_size, mode, use_bias, lambda o, i: np.zeros((o, i)))


def trainable_param_count(arch: Architecture, embed_size: int, mode: str, use_bias: bool = False) -> int:
    """Total trainable parameters for either weight-provenance mode."""
    return sum(arr.size for arr in zeros_params(arch, embed_size, mode, use_bias).arrays())


class StackPass:
    """A DenseStack applied to a batch, keeping what its backward needs: the
    one NumPy pass of the encoder, the classifier head and the decoder, run
    by training and inference alike. Each hidden layer is a leaky ReLU,
    scaled by its dropout mask if masks are given; the last layer of a
    final_softmax stack is a softmax over each row."""

    def __init__(
        self,
        stack: DenseStack,
        batch: np.ndarray,
        slope: float,
        masks: list[np.ndarray] | None,
        final_softmax: bool,
    ):
        self.stack, self.masks, self.final_softmax = stack, masks, final_softmax
        self.inputs: list[np.ndarray] = []
        self.leaks: list[np.ndarray] = []  # leaky-ReLU derivative of each hidden layer
        a = batch
        last = len(stack.weights) - 1
        for i, w in enumerate(stack.weights):
            self.inputs.append(a)
            z = matmul(a, w.T)
            if stack.biases is not None:
                z = z + stack.biases[i]
            if i == last and final_softmax:
                a = softmax(z, axis=1)
            else:
                # 1.0 where z >= 0, else slope (0 < slope < 1): exact, and no
                # np.where, which is slow with two scalar operands
                self.leaks.append(np.maximum(z >= 0.0, slope, dtype=np.float64))
                a = z * self.leaks[-1]  # leaky ReLU: z * 1.0 is z, z * slope is slope * z
                if masks is not None:
                    a = a * masks[i]
        self.output = a

    def backward(self, g: np.ndarray) -> np.ndarray:
        """The gradient into the batch, from the gradient g at the output.
        The layers' own gradients are left in self.grads, a DenseStack."""
        stack, last = self.stack, len(self.stack.weights) - 1
        weight_grads = [None] * (last + 1)
        bias_grads = None if stack.biases is None else [None] * (last + 1)
        for i in range(last, -1, -1):
            if i == last and self.final_softmax:
                p = self.output
                g = p * (g - np.sum(g * p, axis=1, keepdims=True))
            else:
                if self.masks is not None:
                    g = g * self.masks[i]
                g = g * self.leaks[i]
            if bias_grads is not None:
                bias_grads[i] = g.sum(axis=0)
            weight_grads[i] = (self.inputs[i].T @ g).T
            g = g @ stack.weights[i]
        self.grads = DenseStack(weight_grads, bias_grads)
        return g


def encode(enc: DenseStack, x_selected: np.ndarray, slope: float) -> np.ndarray:
    """Hidden representation of a batch of selected inputs (leaky activations throughout)."""
    return StackPass(enc, x_selected, slope, None, False).output


def classify(cls: DenseStack, hidden: np.ndarray, slope: float) -> np.ndarray:
    """Class probabilities from a batch of hidden representations (softmax output)."""
    return StackPass(cls, hidden, slope, None, True).output


def decode(dec: DenseStack, hidden: np.ndarray, slope: float) -> np.ndarray:
    """Reconstruction-side hidden representation (leaky activations throughout)."""
    return StackPass(dec, hidden, slope, None, False).output


def hard_forward(
    params: FsNetParams, X: np.ndarray, selected: list[int], slope: float
) -> tuple[np.ndarray, np.ndarray]:
    """The hard-selection inference pass: encode the columns X[:, selected]
    once, then return the class probabilities and the decoder output
    h_tilde of that one hidden layer."""
    hidden = encode(params.encoder, X[:, selected], slope)
    return classify(params.classifier, hidden, slope), decode(params.decoder, hidden, slope)


def recon_matrix(
    recon_w: np.ndarray, emb: np.ndarray | None, out: np.ndarray | None = None
) -> np.ndarray:
    """Virtual reconstruction weights, one row per feature.

    Predictor mode maps each row phi of the (d, b) embedding table through
    tanh(recon_w @ phi); dense mode (emb is None) squashes the learned matrix
    directly, which is the predictor formula with one-hot embeddings. `out`,
    if given, is an earlier result of the same call to overwrite, which keeps
    the (d, h') layout: C order in predictor mode, F order in dense mode.
    """
    if emb is None:
        return np.tanh(recon_w.T, out=out)
    rows = matmul(emb, recon_w.T, out=out)  # (d, h')
    return np.tanh(rows, out=rows)


def reconstruct(recon_w: np.ndarray, emb: np.ndarray | None, h_tilde: np.ndarray) -> np.ndarray:
    """Reconstructed inputs: each row of h_tilde mapped through the virtual weight rows."""
    return matmul(h_tilde, recon_matrix(recon_w, emb).T)
