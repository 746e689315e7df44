"""Bimodal sigmoid towers with feature fusion and bilinear softmax heads.

The library is used through its modules: linalg, mlp, bilinear, fusion,
training, data and cli (README.md says what each holds).
"""

__version__ = "0.1.0"
