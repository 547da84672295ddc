"""Seeded synthetic memory-reference capture for the capture-service workload.

The capture imitates a program's data stream: array sweeps (unit stride
and strided), a randomly addressed heap with a skewed popularity, and a
small hot stack frame, with roughly a third of the references stores.
It is written in the repro text format (``r|w <hex-address> <size>``)
and gzipped, the shape an external tracer would hand over.

The content hash is computed here independently of the program, over
the same canonical packed record layout the program hashes (little
endian address/size/icount/kind, icount 1 per reference), so the hash
the service reports for the upload can be checked against it.
"""

import gzip
import hashlib

import numpy as np

#: The program's canonical packed reference record (see its ingest module).
PACK_DTYPE = np.dtype(
    [("address", "<i8"), ("size", "<i4"), ("icount", "<i4"), ("kind", "i1")]
)

READ, WRITE = 0, 1


def make_capture(seed: int, refs: int):
    """``(addresses, sizes, kinds)`` arrays of one seeded capture."""
    rng = np.random.default_rng(seed)
    # Each stretch of the stream draws from one of four access sources;
    # stretch lengths are geometric so phases interleave irregularly.
    lengths = rng.geometric(1.0 / 48.0, size=refs // 8 + 64)
    bounds = np.cumsum(lengths)
    count = int(np.searchsorted(bounds, refs)) + 1
    lengths = lengths[:count]
    lengths[-1] -= int(bounds[count - 1]) - refs
    source = rng.choice(4, size=count, p=[0.35, 0.15, 0.30, 0.20])
    source = np.repeat(source, lengths)
    offsets = np.arange(refs, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    starts = np.repeat(rng.integers(0, 1 << 14, size=count), lengths)

    addresses = np.empty(refs, dtype=np.int64)
    # 0: unit-stride sweeps over a 1 MiB array region.
    mask = source == 0
    addresses[mask] = 0x1000_0000 + ((starts[mask] * 64 + offsets[mask] * 4) % (1 << 20))
    # 1: strided column walks (stride 256 B) over a 512 KiB matrix.
    mask = source == 1
    addresses[mask] = 0x2000_0000 + ((starts[mask] * 8 + offsets[mask] * 256) % (1 << 19))
    # 2: heap objects with a skewed (Zipf-like) popularity, 32 B apart.
    mask = source == 2
    objects = np.minimum(rng.zipf(1.3, size=int(mask.sum())), 1 << 15) - 1
    fields = rng.integers(0, 8, size=objects.size)
    addresses[mask] = 0x3000_0000 + objects * 32 + fields * 4
    # 3: a hot 2 KiB stack frame.
    mask = source == 3
    addresses[mask] = 0x7FFF_0000 - rng.integers(0, 512, size=int(mask.sum())) * 4

    store_share = np.array([0.30, 0.10, 0.35, 0.45])[source]
    kinds = (rng.random(refs) < store_share).astype(np.int8)
    sizes = np.where(rng.random(refs) < 0.2, 8, 4).astype(np.int32)
    addresses &= ~(sizes.astype(np.int64) - 1)  # naturally aligned
    return addresses, sizes, kinds


def content_hash(addresses, sizes, kinds) -> str:
    """SHA-256 over the canonical packed reference stream."""
    packed = np.empty(len(addresses), dtype=PACK_DTYPE)
    packed["address"] = addresses
    packed["size"] = sizes
    packed["icount"] = 1
    packed["kind"] = kinds
    return hashlib.sha256(packed.tobytes()).hexdigest()


def capture_text(addresses, sizes, kinds) -> bytes:
    """The capture as repro text-format lines."""
    letters = ("r", "w")
    lines = [
        f"{letters[kind]} {address:x} {size}"
        for address, size, kind in zip(
            addresses.tolist(), sizes.tolist(), kinds.tolist()
        )
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def write_capture(path, seed: int, refs: int) -> dict:
    """Write one gzipped capture; returns its expected identity."""
    addresses, sizes, kinds = make_capture(seed, refs)
    with open(path, "wb") as handle:
        handle.write(gzip.compress(capture_text(addresses, sizes, kinds), 1))
    return {
        "hash": content_hash(addresses, sizes, kinds),
        "refs": int(refs),
        "reads": int(np.count_nonzero(kinds == READ)),
        "writes": int(np.count_nonzero(kinds == WRITE)),
    }
