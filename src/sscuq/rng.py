"""Counter-based random number generation (splitmix64).

Every draw is a pure function of ``(seed, counter)``, so any slice of a
stream can be regenerated independently and identical sequences can be
reproduced in any language from the constants below.  The generator is
the splitmix64 finalizer applied to ``seed + (counter + 1) * GOLDEN``,
which for ``counter = 0, 1, 2, ...`` is exactly the canonical splitmix64
output sequence started at state ``seed``.

One kernel computes every output: it walks the flattened counters in
chunks of ``_CHUNK`` and runs the splitmix64 step in place on two
chunk-sized uint64 scratch buffers, writing each chunk's result straight
into the output array.  The scratch stays in cache and no whole-array
temporary is made.  Because each output depends only on its own
``(seed, counter)``, the result does not depend on the chunk size, nor
on how a caller blocks its counters.

Counters become uint64 before any arithmetic: under numpy's promotion
rules (NEP 50) int64 mixed with uint64 gives float64, which would
silently change the bits.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0x632BE59BD9B4E019)

# Substream tags for derive_seed, one per draw of the package.  A new
# draw takes a tag of its own; changing a value changes every output.
TAG_SCENE = 1  # synth.generate_scene: object sizes and positions
TAG_TARGET = 2  # synth.classify_labels: confusion targets
TAG_GUMBEL = 3  # synth.classify_labels: logit noise
TAG_DEPTH = 4  # synth.render_depth: depth noise
TAG_LABELS = 5  # synth.draw_labels
TAG_SPLIT = 6  # pipeline.split_mask

# Counters per kernel step: bounds the two uint64 scratch buffers.
_CHUNK = 16384

__all__ = ["mix64", "derive_seed", "raw64", "uniforms", "normals", "gumbels"]


def _finalize(z: np.ndarray, t: np.ndarray) -> None:
    """splitmix64 finalizer in place on ``z``; ``t`` is scratch."""
    for shift, mult in ((30, _MIX_1), (27, _MIX_2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=t)
        np.bitwise_xor(z, t, out=z)
        if mult is not None:
            np.multiply(z, mult, out=z)


def _state(z: np.ndarray, seed: int, scale: int = 1) -> None:
    """In place: counters c in ``z`` become the generator states of the
    stream ``seed`` at counters ``scale * c`` (mod 2**64)."""
    if scale != 1:
        np.multiply(z, np.uint64(scale), out=z)
    np.add(z, np.uint64(1), out=z)
    np.multiply(z, GOLDEN, out=z)
    np.add(z, np.uint64(seed), out=z)


def _splitmix(z: np.ndarray, t: np.ndarray, seed: int) -> None:
    """In place: counters in ``z`` become their outputs of the stream ``seed``."""
    _state(z, seed)
    _finalize(z, t)


def _to_unit(z: np.ndarray, out: np.ndarray) -> None:
    """Top 53 bits of ``z`` as floats in (0, 1), written to ``out``."""
    np.right_shift(z, np.uint64(11), out=z)
    np.add(z, 0.5, out=out)
    np.multiply(out, 2.0**-53, out=out)


def _kernel(counters, dtype, step) -> np.ndarray:
    """Output of ``dtype`` shaped like ``counters``, one element per counter.

    ``step(z, t, o)`` fills the output chunk ``o``: on entry ``z`` holds
    the chunk's counters as uint64 and ``t`` is scratch of the same size.
    """
    # an array is cast chunk by chunk; anything else (Python ints up to
    # 2**64 - 1) converts as a whole
    c = counters if isinstance(counters, np.ndarray) else np.asarray(counters, dtype=np.uint64)
    src = c.reshape(-1)
    out = np.empty(src.size, dtype=dtype)
    z = np.empty(min(_CHUNK, src.size), dtype=np.uint64)
    t = np.empty_like(z)
    for start in range(0, src.size, _CHUNK):
        stop = min(start + _CHUNK, src.size)
        k = stop - start
        np.copyto(z[:k], src[start:stop], casting="unsafe")
        step(z[:k], t[:k], out[start:stop])
    out = out.reshape(c.shape)
    return out if out.ndim else out[()]


def mix64(x) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 input."""

    def step(z, t, o):
        _finalize(z, t)
        o[:] = z

    return _kernel(x, np.uint64, step)


def derive_seed(seed: int, tag: int) -> int:
    """Derive a substream seed from a root seed and an integer tag."""
    with np.errstate(over="ignore"):
        base = mix64(np.uint64(seed) ^ mix64(np.uint64(tag) + _STREAM_SALT))
    return int(base)


def raw64(seed: int, counters) -> np.ndarray:
    """uint64 outputs at the given counters of the stream ``seed``."""

    def step(z, t, o):
        _splitmix(z, t, seed)
        o[:] = z

    return _kernel(counters, np.uint64, step)


def uniforms(seed: int, counters) -> np.ndarray:
    """Uniform floats strictly inside (0, 1), one per counter.

    Uses the top 53 bits offset by half an ulp, so 0 and 1 are never
    produced and logs of the output are always finite.
    """

    def step(z, t, o):
        _splitmix(z, t, seed)
        _to_unit(z, o)

    return _kernel(counters, np.float64, step)


def normals(seed: int, counters) -> np.ndarray:
    """Standard normal draws, one per counter (Box-Muller, cosine branch).

    Draw ``i`` consumes stream counters ``2i`` and ``2i + 1``; disjoint
    counter sets therefore give independent normals.
    """

    def step(z, t, o):
        _state(z, seed, scale=2)  # counter 2c
        odd = o.view(np.uint64)  # the output chunk holds counter 2c + 1 first
        np.add(z, GOLDEN, out=odd)
        _finalize(odd, t)
        _to_unit(odd, o)
        np.multiply(o, 2.0 * np.pi, out=o)
        np.cos(o, out=o)
        _finalize(z, t)
        radius = t.view(np.float64)
        _to_unit(z, radius)
        np.log(radius, out=radius)
        np.multiply(radius, -2.0, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(radius, o, out=o)

    return _kernel(counters, np.float64, step)


def gumbels(seed: int, counters) -> np.ndarray:
    """Standard Gumbel draws, one per counter."""

    def step(z, t, o):
        _splitmix(z, t, seed)
        _to_unit(z, o)
        np.log(o, out=o)
        np.negative(o, out=o)
        np.log(o, out=o)
        np.negative(o, out=o)

    return _kernel(counters, np.float64, step)
