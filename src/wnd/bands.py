"""The package's one sparse operator form: a square matrix held as its
nonzero diagonals.

Ladder-polynomial images are banded (``fock._image_bands`` builds them band
by band, a two-mode monomial as the :meth:`Bands.kron` of its per-mode
bands), and so are the kron products of banded matrices that make up a
Liouville generator (``liouville.left_right_superop``), so :class:`Bands`
carries both without a dense matrix or ``scipy.sparse``.  It is used as
``fock.Bands``.
"""

from __future__ import annotations

import numbers

import numpy as np


class Bands:
    """A square operator stored as its nonzero diagonals ``{offset: band}``.

    ``band`` is ``np.diagonal(M, offset)`` (offset = column - row); the bands
    are kept in ascending offset order.  ``M @ x`` takes a vector or a block
    of column states, ``w @ M`` a row vector, each one slice product per
    band; ``+``, ``-`` and scalar ``*`` combine bands, so no dim x dim
    matrix is formed.  Numpy arrays and scalars defer to these operators.
    The bands are never written after construction, so :meth:`norm1` is
    computed once per object.
    """

    __slots__ = ("shape", "bands", "_parts", "_norm1")
    __array_ufunc__ = None

    def __init__(self, dim, bands):
        self.shape = (dim, dim)
        self.bands = {k: bands[k] for k in sorted(bands)}
        self._norm1 = None
        # (rows, columns, band) per diagonal, in ascending offset order.
        self._parts = []
        for k, band in self.bands.items():
            size = dim - abs(k)
            if np.shape(band) != (size,):
                raise ValueError(f"band {k} of a {dim}x{dim} operator has "
                                 f"shape {np.shape(band)}")
            self._parts.append((slice(max(0, -k), max(0, -k) + size),
                                slice(max(0, k), max(0, k) + size), band))

    @classmethod
    def from_dense(cls, mat):
        """The nonzero diagonals of a square matrix, copied."""
        mat = np.asarray(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        rows, cols = np.nonzero(mat)
        return cls(mat.shape[0], {k: np.diagonal(mat, k).copy()
                                  for k in np.unique(cols - rows).tolist()})

    def kron(self, other):
        """kron(self, other) as a :class:`Bands`.

        Diagonal k_o of self and diagonal k_i of other (dimension d) land on
        diagonal k_o d + k_i of the product, each entry the product of one
        entry of each; two pairs that share a diagonal fill disjoint rows,
        and are summed in ascending (k_o, k_i) order.
        """
        d_o, d_i = self.shape[0], other.shape[0]
        dim = d_o * d_i
        bands = {}
        for k_o, band_o in self.bands.items():
            for k_i, band_i in other.bands.items():
                k = k_o * d_i + k_i
                by_row = np.kron(_by_row(d_o, k_o, band_o), _by_row(d_i, k_i, band_i))
                band = by_row[max(0, -k):dim - max(0, k)]
                bands[k] = bands[k] + band if k in bands else band
        return Bands(dim, bands)

    def _zeros(self, x, axis):
        """Zeros shaped like ``x``, whose ``axis`` must have length dim."""
        if x.ndim == 0 or x.shape[axis] != self.shape[0]:
            raise ValueError(f"a {self.shape} operator cannot act on shape {x.shape}")
        return np.zeros(x.shape, dtype=np.result_type(x, *self.bands.values()))

    def __matmul__(self, x):
        x = np.asarray(x)
        out = self._zeros(x, 0)
        for rows, cols, band in self._parts:
            if x.ndim > 1:
                band = band.reshape((-1,) + (1,) * (x.ndim - 1))
            out[rows] += band * x[cols]
        return out

    def __rmatmul__(self, w):
        w = np.asarray(w)
        out = self._zeros(w, -1)
        for rows, cols, band in self._parts:
            out[..., cols] += w[..., rows] * band
        return out

    def __add__(self, other):
        if not isinstance(other, Bands):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"operator shapes {self.shape} and {other.shape} differ")
        bands = dict(self.bands)
        for k, band in other.bands.items():
            bands[k] = bands[k] + band if k in bands else band
        return Bands(self.shape[0], bands)

    def __neg__(self):
        return Bands(self.shape[0], {k: -band for k, band in self.bands.items()})

    def __sub__(self, other):
        if not isinstance(other, Bands):
            return NotImplemented
        return self + -other

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return Bands(self.shape[0],
                     {k: band * scalar for k, band in self.bands.items()})

    __rmul__ = __mul__

    def norm1(self):
        """||M||_1, the largest column sum of |M|, each column summed down
        its rows as a dense column sum is; computed on the first call."""
        if self._norm1 is None:
            sums = np.zeros(self.shape[0])
            for _, cols, band in reversed(self._parts):
                sums[cols] += np.abs(band)
            self._norm1 = float(sums.max(initial=0.0))
        return self._norm1

    def toarray(self):
        """The dense complex matrix."""
        out = np.zeros(self.shape, dtype=np.result_type(complex, *self.bands.values()))
        for rows, cols, band in self._parts:
            np.fill_diagonal(out[rows, cols], band)
        return out


def _by_row(dim, offset, band):
    """Diagonal ``offset`` of a dim x dim matrix indexed by row: zero in the
    rows it does not reach."""
    vec = np.zeros(dim, dtype=band.dtype)
    vec[max(0, -offset):dim - max(0, offset)] = band
    return vec
