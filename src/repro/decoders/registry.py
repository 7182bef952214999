"""Name-keyed registry of syndrome decoders.

The mirror of :mod:`repro.backends` for the decoding side of the
pipeline: the engine workers, the experiment harness, the CLI and the
examples all resolve decoders through this registry, so adding a decoder
(say, a union-find or belief-propagation decoder) is one
:func:`register_decoder` call, not a code fork across five layers.  Name
and alias resolution is the shared :class:`repro.registry.Registry`.

A decoder only has to answer the unpacked protocol; the engine decodes
every decoder in the packed domain through :func:`packed_predictions`,
which uses a native ``decode_batch_packed`` when the decoder has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.dem.model import DetectorErrorModel
from repro.gf2 import bitops
from repro.registry import Registry


@runtime_checkable
class SyndromeDecoder(Protocol):
    """What every compiled decoder must answer."""

    #: Detector count of the DEM it was compiled from: the syndrome
    #: width ``decode_batch`` accepts.
    n_detectors: int

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Predicted observable flips: uint8 array of shape (n_obs,)."""
        ...

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Predictions for a (shots, n_detectors) batch of syndromes:
        uint8 array of shape (shots, n_observables)."""
        ...


@dataclass(frozen=True)
class DecoderInfo:
    """Static capability description of one decoder.

    ``graphlike_only`` — the decoder silently restricts the DEM to its
    graphlike mechanisms (the standard MWPM practice); hyperedge
    probability mass is not corrected for.

    ``batched`` — ``decode_batch`` is vectorized across shots rather
    than a Python loop over ``decode``.

    ``exact`` — maximum-likelihood over the mechanisms it enumerates
    (the lookup table), as opposed to the matching approximation.

    ``compile_once`` — construction does all path-finding/enumeration
    up front; decoding afterwards never re-analyzes the DEM.

    ``version`` — bumped when the decoder's predictions change for some
    syndromes (say, a new tie-breaking rule).  A set version joins
    :meth:`repro.engine.Task.strong_id`, so result-store rows written
    under an older version re-collect instead of mixing with new
    counts; ``None`` leaves the id as it was before versions existed.
    """

    name: str
    description: str
    graphlike_only: bool = False
    batched: bool = False
    exact: bool = False
    compile_once: bool = True
    version: str | None = None


@dataclass(frozen=True)
class RegisteredDecoder:
    """A registered decoder: capability info plus its compile entry."""

    info: DecoderInfo
    factory: Callable[[DetectorErrorModel], SyndromeDecoder]

    def compile(self, dem: DetectorErrorModel) -> SyndromeDecoder:
        """Run this decoder's one-time analysis; returns the decoder."""
        return self.factory(dem)


_DECODERS: Registry[RegisteredDecoder] = Registry("decoder")


def register_decoder(
    info: DecoderInfo,
    factory: Callable[[DetectorErrorModel], SyndromeDecoder],
    aliases: Iterable[str] = (),
) -> RegisteredDecoder:
    """Register a decoder under ``info.name`` (plus optional aliases);
    the alias rules are :meth:`repro.registry.Registry.register`'s."""
    return _DECODERS.register(
        info.name, RegisteredDecoder(info, factory), aliases
    )


#: Name/alias -> canonical name; ``KeyError`` naming the known decoders.
canonical_name = _DECODERS.canonical_name
#: Look up a decoder by canonical name or alias.
get_decoder = _DECODERS.get
#: Sorted canonical names of every registered decoder.
available_decoders = _DECODERS.names
#: Canonical names plus aliases (for CLI ``choices=``).
decoder_choices = _DECODERS.choices


def packed_predictions(
    decoder: SyndromeDecoder, syndromes: np.ndarray, n_detectors: int
) -> np.ndarray:
    """Packed predictions from *any* decoder, for packed syndromes.

    Input and output use the packed wire format (shot-major uint64
    rows, little-endian bit order, zero padding bits).  Calls the
    decoder's ``decode_batch_packed`` when it has one and otherwise
    unpacks the ``n_detectors``-wide rows, runs ``decode_batch`` and
    packs the result — the decoding-side mirror of
    :func:`repro.backends.protocol.packed_detector_samples`.  Packing
    is lossless, so either way the predictions are bitwise identical to
    packing ``decode_batch``'s output.  A wrong packed width raises the
    same ``ValueError`` on both paths.
    """
    native = getattr(decoder, "decode_batch_packed", None)
    if native is not None:
        return native(syndromes)
    syndromes = checked_packed_syndromes(syndromes, n_detectors)
    return bitops.pack_rows(
        decoder.decode_batch(bitops.unpack_rows(syndromes, n_detectors))
    )


def checked_syndromes(syndromes, n_detectors: int) -> np.ndarray:
    """``syndromes`` as a uint8 ``(shots, n_detectors)`` matrix.

    Every batch decoder validates its input here: a row of the wrong
    width would otherwise decode silently to zeros (or, one bit too
    wide, misread the stray bit as the boundary node).
    """
    syndromes = np.asarray(syndromes, dtype=np.uint8)
    if syndromes.ndim != 2 or syndromes.shape[1] != n_detectors:
        raise ValueError(
            f"expected syndromes of shape (shots, {n_detectors}), "
            f"got {syndromes.shape}"
        )
    return syndromes


def checked_packed_syndromes(syndromes, n_detectors: int) -> np.ndarray:
    """``syndromes`` as a packed ``(shots, words_for(n_detectors))``
    uint64 matrix; the packed counterpart of :func:`checked_syndromes`."""
    syndromes = np.asarray(syndromes, dtype=np.uint64)
    n_words = bitops.words_for(n_detectors)
    if syndromes.ndim != 2 or syndromes.shape[1] != n_words:
        raise ValueError(
            f"expected packed syndromes of shape (shots, {n_words}), "
            f"got {syndromes.shape}"
        )
    return syndromes


def compile_decoder(
    dem: DetectorErrorModel, decoder: str = "matching"
) -> SyndromeDecoder:
    """Compile ``dem`` with the named decoder; returns the decoder."""
    return get_decoder(decoder).compile(dem)
