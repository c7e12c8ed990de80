"""FsNet: end-to-end trainable feature selection for high-dimensional,
few-sample data.

A concrete (relaxed one-hot) selection layer is trained jointly with a small
classifier and reconstruction network; the large selection and reconstruction
weight matrices are predicted per-feature from compact histogram embeddings,
so the trainable parameter count is independent of the input dimension.
Names are imported from the submodules, e.g. ``from fsnet.trainer import train``.
"""
