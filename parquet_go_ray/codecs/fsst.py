"""FSST: Fast Static Symbol Table compression for text/html columns.

Implemented from the public FSST paper (Boncz, Neumann, Leis — "FSST:
Fast Random Access String Compression", VLDB 2020). Absent from the
reference (segmentio/parquet-go); required by the north rule for
text/html columns. Not byte-compatible with the C++ libfsst wire format —
round-trip fidelity + compression gain are the contract here.

Scheme: up to 255 symbols of 1..8 bytes, codes 0..254; code 255 is an
escape followed by one literal byte. Encoding replaces greedy
longest-match symbol occurrences with their 1-byte code.

Encode and decode run in C (``fsst_encode``/``fsst_decode`` in
_fsst_native.c, loaded through ``native.load``) whenever a compiler is
present:

- encode is a greedy longest-match scan over 4 KiB blocks that writes the
  whole code stream, block-length header included, in one pass. Its
  lookup follows the paper: a 64K-entry table on the 2-byte prefix for
  the 1- and 2-byte symbols and a 1024-slot hash on the 3-byte prefix
  for the longer ones, each slot holding its two longest symbols inline
  (the rest on a rarely walked overflow run). The symbol is picked with
  conditional moves, and 4 blocks are tokenized in one interleaved loop
  so that their chains of dependent loads overlap. The lookup is an
  exact greedy longest match, so the C and numpy encoders write the same
  bytes. It is built on a table's first native encode and kept in a
  small LRU of the tables last used (``_LOOKUPS``), not on the table:
  at 157 KiB it is 70 times the table, and a selection plan keeps one
  table per column;
- decode skips that header and writes each symbol with one unconditional
  8-byte store (the paper's design) straight into the buffer that becomes
  the Arrow value buffer. ``decode_byte_array`` sizes that buffer exactly
  from the value lengths, plus 8 bytes of slack, and hands Arrow a view of
  it; the decoded length must equal the sum of the lengths.

The numpy implementation is the reference and the fallback without a
compiler. It is vectorized:

- symbol matching: 8-byte little-endian windows of the input as uint64,
  masked per symbol length, membership via ``np.searchsorted`` against the
  sorted symbol keys (longest length wins);
- the inherently sequential greedy scan (position i+len(match) depends on
  the match at i) is solved with pointer doubling: build the "next token
  start" function as an array and extract the visited-position path in
  O(log n) vectorized gathers;
- output assembly via cumsum offsets + fancy-index scatter.

A corrupt stream or payload raises ``codecs.chunk.ChunkError`` on both
paths.

Training is a simplified version of the paper's iterative algorithm: at
each round, tokenize a bounded sample with the current table, count token
and adjacent-token-pair substrings, keep the 255 candidates with the
highest apparent gain (frequency × length). It runs natively
(``fsst_train`` in _fsst_native.c: the encoder's lookup, a hash count
and a bounded heap) whenever the C kernels load;
the numpy trainer (``_train_numpy``) is kept as the reference and as the
fallback without a compiler, and both return the same symbol list.
"""

from __future__ import annotations

import ctypes
import weakref

import numpy as np

from . import native
from ._util import uvarint_decode, uvarint_encode

ESCAPE = 255
MAX_SYMBOLS = 255
MAX_SYMBOL_LEN = 8
BLOCK = 4096  # tokenization block: matches never cross a block boundary
TRAIN_SAMPLE = 1 << 15  # 32 KiB
TRAIN_ITERS = 4

_U64 = np.uint64

# the C encoder's lookups of the tables last used, least recent first
# (a table is reused across chunks through the selection plan, and a
# chunk's FSST columns each use one table); weak keys, so a table that
# is dropped takes its lookup with it
MAX_LOOKUPS = 16  # 2.5 MiB
_LOOKUPS: weakref.WeakKeyDictionary[SymbolTable, np.ndarray] = (
    weakref.WeakKeyDictionary()
)

# ---------------------------------------------------------------- native
# Optional C kernels (tokenizer, decoder, trainer) in _fsst_native.c,
# loaded through native.load. The numpy implementation below remains the
# reference and the fallback — both produce the same wire format and the
# same symbol tables (tested in tests/test_fsst.py).


def _native():
    return native.load("_fsst_native.c")


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(ctypes.c_void_p)


def _windows_u64(buf: np.ndarray) -> np.ndarray:
    """W[i] = uint64 little-endian view of bytes i..i+7 (zero padded)."""
    n = len(buf)
    p = np.zeros(n + MAX_SYMBOL_LEN - 1, dtype=np.uint64)
    p[:n] = buf
    w = p[0:n].copy()
    for k in range(1, MAX_SYMBOL_LEN):
        w |= p[k : n + k] << _U64(8 * k)
    return w


def _sym_key(sym: bytes) -> int:
    """uint64 little-endian key of a symbol (length <= 8)."""
    return int.from_bytes(sym, "little")


def _path_positions(
    step: np.ndarray, n: int, roots: np.ndarray | None = None
) -> np.ndarray:
    """Positions visited when walking pos += step[pos] from each root
    (default: just 0) until the next root or n.

    Pointer doubling: O(log max-segment-length) rounds of vectorized
    gathers. With block roots every BLOCK bytes (and steps that never
    cross a block boundary), the round count drops from log2(n) to
    log2(BLOCK) and all blocks advance in parallel.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64)
    nxt = np.minimum(np.arange(n, dtype=np.int64) + step, n).astype(np.int32)
    if roots is None:
        visited = np.array([0], dtype=np.int32)
    else:
        visited = roots.astype(np.int32)
        # steps never cross a root (caller clamps matches at block
        # boundaries), so every segment's walk lands exactly ON the next
        # root — turn that landing into a sink so each segment's doubling
        # terminates in log2(segment length) rounds instead of log2(n)
        root_mask = np.zeros(n + 1, dtype=bool)
        root_mask[np.minimum(roots, n)] = True
        nxt = np.where(root_mask[nxt], n, nxt).astype(np.int32)
    j = np.append(nxt, n).astype(np.int32)  # sink at n
    # invariant: `visited` holds positions reached after 0..2^k-1 steps
    # from every root and `j` maps a position 2^k steps forward. Path
    # positions are strictly increasing until the sink, so only sink
    # entries (and root collisions) duplicate — one dedup at the end.
    for _ in range(64):
        new = j[visited]
        if new.max() >= n and (new >= n).all():
            break
        visited = np.concatenate((visited, new))
        j = j[j]
    visited = np.unique(visited)
    return visited[visited < n].astype(np.int64)


class SymbolTable:
    __slots__ = (
        "_symbols",
        "_n",
        "_l1",
        "_l2",
        "_prefix3",
        "_lpm_lo",
        "_lpm_hi",
        "_lpm_code",
        "_lpm_len",
        "_lpm_parent",
        "_lpm_depth",
        "_packed",
        "_lens_u8",
        "__weakref__",
    )

    def __init__(self, symbols: list[bytes]):
        if len(symbols) > MAX_SYMBOLS:
            raise ValueError("too many symbols")
        lens = np.fromiter(map(len, symbols), dtype=np.uint8, count=len(symbols))
        self._build(lens, b"".join(symbols))
        self._symbols = symbols

    def _build(self, lens: np.ndarray, concat) -> None:
        """Tables from the symbol lengths and the concatenated symbols."""
        n = len(lens)
        self._n = n
        self._symbols = None  # the list is built on first use
        # numpy matcher structures (l1/l2/prefix3/LPM) are built lazily
        # on first _match: the native path never needs them, and the
        # 16 MiB prefix table is the dominant construction cost
        self._l1 = None
        # 8-byte zero-padded symbol matrix + u8 lengths: what the C
        # kernels and the numpy decoder read. Row-major order of the mask
        # is symbol by symbol, byte by byte: the order of `concat`.
        self._packed = np.zeros((MAX_SYMBOLS, 8), dtype=np.uint8)
        self._packed[:n][np.arange(MAX_SYMBOL_LEN) < lens[:, None]] = np.frombuffer(
            concat, dtype=np.uint8
        )
        self._lens_u8 = np.zeros(MAX_SYMBOLS, dtype=np.uint8)
        self._lens_u8[:n] = lens

    def __reduce__(self):
        # a pickle (a job plan shipped to tasks) carries the symbols,
        # not the lazily built 16 MiB numpy matcher tables
        return (SymbolTable, (self.symbols,))

    @property
    def symbols(self) -> list[bytes]:
        """The symbols in code order."""
        if self._symbols is None:
            self._symbols = [
                self._packed[i, :ln].tobytes()
                for i, ln in enumerate(self._lens_u8[: self._n].tolist())
            ]
        return self._symbols

    # ------------------------------------------------------------ wire form
    def serialize(self) -> bytes:
        out = [bytes([self._n]), self._lens_u8[: self._n].tobytes()]
        out.extend(self.symbols)
        return b"".join(out)

    @classmethod
    def deserialize(cls, buf, pos: int = 0) -> tuple["SymbolTable", int]:
        """(table, position after it) from any buffer, without a Python
        loop over the symbols. Raises ChunkError if the table runs past
        the buffer or a symbol length is not 1..8."""
        if pos >= len(buf):
            raise _corrupt("symbol table is truncated")
        n = buf[pos]
        if pos + 1 + n > len(buf):
            raise _corrupt("symbol table is truncated")
        lens = np.frombuffer(buf, dtype=np.uint8, count=n, offset=pos + 1)
        pos += 1 + n
        end = pos + int(lens.sum())
        if end > len(buf):
            raise _corrupt("symbol table is truncated")
        if (lens - np.uint8(1) >= MAX_SYMBOL_LEN).any():  # 0 wraps to 255
            raise _corrupt("symbol length outside 1..8")
        table = cls.__new__(cls)
        table._build(lens, buf[pos:end])
        return table, end

    # ------------------------------------------------------------ tokenize
    def _build_match_structs(self) -> None:
        symbols = self.symbols
        # direct-addressed tables for 1- and 2-byte symbols (255 = no match)
        self._l1 = np.full(256, 255, dtype=np.uint8)
        self._l2 = np.full(65536, 255, dtype=np.uint8)
        # 3-byte-prefix bitmap for symbols of length >= 3 (match
        # prefilter; 16 MiB direct table, rebuilt from symbols on demand)
        self._prefix3 = np.zeros(1 << 24, dtype=bool)
        # longest-prefix-match structure over big-endian keys for len >= 3:
        # symbol s covers key range [s·00…, s·ff…]; deepest containing range
        # = longest match; parent = nearest enclosing (shorter) symbol.
        longs = sorted(
            ((i, s) for i, s in enumerate(symbols) if len(s) >= 3),
            key=lambda e: (int.from_bytes(e[1].ljust(8, b"\x00"), "big"), len(e[1])),
        )
        m = len(longs)
        self._lpm_lo = np.empty(m, dtype=np.uint64)
        self._lpm_hi = np.empty(m, dtype=np.uint64)
        self._lpm_code = np.empty(m, dtype=np.uint8)
        self._lpm_len = np.empty(m, dtype=np.int8)
        self._lpm_parent = np.full(m, -1, dtype=np.int32)
        stack: list[int] = []
        depth = 0
        for j, (i, s) in enumerate(longs):
            lo = int.from_bytes(s.ljust(8, b"\x00"), "big")
            hi = int.from_bytes(s.ljust(8, b"\xff"), "big")
            self._lpm_lo[j] = lo
            self._lpm_hi[j] = hi
            self._lpm_code[j] = i
            self._lpm_len[j] = len(s)
            while stack and int(self._lpm_hi[stack[-1]]) < lo:
                stack.pop()
            if stack:
                self._lpm_parent[j] = stack[-1]
            stack.append(j)
            depth = max(depth, len(stack))
        self._lpm_depth = depth
        for i, s in enumerate(symbols):
            if len(s) == 1:
                self._l1[s[0]] = i
            elif len(s) == 2:
                self._l2[s[0] | (s[1] << 8)] = i
            else:
                self._prefix3[s[0] | (s[1] << 8) | (s[2] << 16)] = True

    def _match(self, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per position: (best match length [0 = no symbol], symbol code)."""
        if self._l1 is None:
            self._build_match_structs()
        n = len(buf)
        bestlen = np.zeros(n, dtype=np.int8)
        symid = np.zeros(n, dtype=np.uint8)
        if not self._n or n == 0:
            return bestlen, symid
        # 2-byte little-endian view at every position
        w16 = buf[: max(n - 1, 0)].astype(np.uint16)
        if n > 1:
            w16 |= buf[1:n].astype(np.uint16) << 8
        # long symbols (>= 3 bytes): prefilter positions by 2-byte prefix,
        # then one longest-prefix-match searchsorted over big-endian keys
        # with parent chaining (laminar prefix ranges: the deepest range
        # containing a window is the longest match)
        if len(self._lpm_lo) and n > 2:
            w24 = w16[: n - 2].astype(np.uint32) | (
                buf[2:n].astype(np.uint32) << 16
            )
            cand = np.nonzero(self._prefix3[w24])[0]
            if len(cand):
                # big-endian 8-byte windows at candidate positions: combine
                # the two aligned uint64 words covering each window (2
                # gathers instead of 8), then byteswap LE -> BE
                npad = ((n + 15) // 8) * 8
                pad8 = np.zeros(npad, dtype=np.uint8)
                pad8[:n] = buf
                u = pad8.view(np.uint64)
                word = cand >> 3
                s = ((cand & 7) << 3).astype(np.uint64)
                lo_w = u[word] >> s
                hi_w = np.where(s > 0, u[word + 1] << (_U64(64) - s), 0)
                w = (lo_w | hi_w).byteswap()
                idx = np.searchsorted(self._lpm_lo, w, side="right").astype(np.int32) - 1
                rem = np.nonzero(idx >= 0)[0]
                cur = idx[rem]
                while len(rem):
                    ln = self._lpm_len[cur]
                    ok = (
                        (w[rem] <= self._lpm_hi[cur])
                        & (cand[rem] + ln <= n)
                        & ((cand[rem] & (BLOCK - 1)) + ln <= BLOCK)
                    )
                    hit = cand[rem[ok]]
                    bestlen[hit] = ln[ok]
                    symid[hit] = self._lpm_code[cur[ok]]
                    parent = self._lpm_parent[cur[~ok]]
                    keep = parent >= 0
                    rem = rem[~ok][keep]
                    cur = parent[keep]
        # 2-byte symbols (not at a block's last byte): gather only at
        # still-unset positions — long matches already cover a large
        # fraction on natural text
        if n > 1:
            unset = np.nonzero(bestlen[: n - 1] == 0)[0]
            c2 = self._l2[w16[unset]]
            sel = (c2 != 255) & ((unset & (BLOCK - 1)) != BLOCK - 1)
            hit = unset[sel]
            bestlen[hit] = 2
            symid[hit] = c2[sel]
        # 1-byte symbols
        unset = np.nonzero(bestlen == 0)[0]
        c1 = self._l1[buf[unset]]
        sel = c1 != 255
        bestlen[unset[sel]] = 1
        symid[unset[sel]] = c1[sel]
        return bestlen, symid

    def tokenize(self, data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Greedy longest-match tokenization (block-local: tokens never
        cross a BLOCK boundary, making every block an independent
        segment for parallel path extraction).

        Returns (starts, lengths, codes) where codes == ESCAPE marks a
        literal byte token.
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        n = len(buf)
        bestlen, symid = self._match(buf)
        step = np.maximum(bestlen, 1)
        roots = np.arange(0, n, BLOCK, dtype=np.int64)
        starts = _path_positions(step, n, roots if len(roots) else None)
        lengths = step[starts]
        codes = np.where(bestlen[starts] > 0, symid[starts], ESCAPE).astype(np.uint8)
        return starts, lengths, codes

    # ------------------------------------------------------------ en/decode
    def encode(self, data):
        """Code stream of `data` (any buffer) as a bytes-like object:
        [uvarint n_blocks][uvarint code bytes per input BLOCK]...[codes].
        The per-block lengths let the numpy decoder start a path root at
        every block (log2(block) doubling rounds, all blocks in
        parallel). Uses the native C tokenizer when available."""
        lib = _native()
        if lib is not None:
            return self._encode_native(lib, data)
        starts, lengths, codes = self.tokenize(data)
        buf = np.frombuffer(data, dtype=np.uint8)
        is_esc = codes == ESCAPE
        out_len = np.where(is_esc, 2, 1)
        out_off = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(out_len, out=out_off[1:])
        out = np.empty(int(out_off[-1]), dtype=np.uint8)
        out[out_off[:-1]] = codes
        esc_pos = out_off[:-1][is_esc]
        out[esc_pos + 1] = buf[starts[is_esc]]
        # per-input-block code lengths (block starts are token starts)
        n = len(buf)
        roots = np.arange(0, n, BLOCK, dtype=np.int64)
        root_tok = np.searchsorted(starts, roots)
        bounds = np.append(out_off[root_tok], out_off[-1])
        block_lens = np.diff(bounds)
        header = [uvarint_encode(len(block_lens))]
        header.extend(uvarint_encode(int(x)) for x in block_lens)
        return b"".join(header) + out.tobytes()

    def _native_lookup(self, lib) -> np.ndarray:
        """The C encoder's symbol lookup for this table (fsst_lookup in
        _fsst_native.c), from the LRU or built and put in it."""
        lookup = _LOOKUPS.pop(self, None)
        if lookup is None:
            lookup = np.empty(lib.fsst_lookup_size(), dtype=np.uint8)
            rc = lib.fsst_lookup_build(
                _ptr(self._packed), _ptr(self._lens_u8), ctypes.c_int32(self._n), _ptr(lookup)
            )
            if rc != 0:
                raise RuntimeError(f"native fsst_lookup_build failed rc={rc}")
            while len(_LOOKUPS) >= MAX_LOOKUPS:
                del _LOOKUPS[next(iter(_LOOKUPS))]
        _LOOKUPS[self] = lookup
        return lookup

    def _encode_native(self, lib, data) -> memoryview:
        buf = np.frombuffer(data, dtype=np.uint8)
        n = len(buf)
        # encode_bound in _fsst_native.c: every byte an escape pair, plus
        # the longest block-length header
        out = np.empty(2 * n + 12 + 2 * (n // BLOCK), dtype=np.uint8)
        block_lens = np.empty(n // BLOCK + 1, dtype=np.int64)
        start = ctypes.c_int64(0)
        out_len = ctypes.c_int64(0)
        rc = lib.fsst_encode(
            _ptr(buf) if n else None,
            ctypes.c_int64(n),
            _ptr(self._native_lookup(lib)),
            _ptr(out),
            ctypes.c_int64(len(out)),
            _ptr(block_lens),
            ctypes.byref(start),
            ctypes.byref(out_len),
        )
        if rc != 0:
            raise RuntimeError(f"native fsst_encode failed rc={rc}")
        return memoryview(out)[start.value : start.value + out_len.value]

    def decode(self, stream, size: int) -> np.ndarray:
        """Decode a code stream (any buffer) that must decode to exactly
        `size` bytes: the stream does not record its decoded length, the
        byte-array codec knows it from its value lengths. Returns a
        uint8 array of `size` bytes. Raises ChunkError if the stream is
        corrupt or decodes to any other length."""
        b = np.frombuffer(stream, dtype=np.uint8)
        # a code expands to at most 8 bytes: a larger size is corrupt,
        # and must not size an allocation
        if size < 0 or size > MAX_SYMBOL_LEN * len(b):
            raise _corrupt(f"{size} decoded bytes cannot come from {len(b)} code bytes")
        lib = _native()
        if lib is not None:
            return self._decode_native(lib, b, size)
        return self._decode_numpy(b, size)

    def _decode_native(self, lib, b: np.ndarray, size: int) -> np.ndarray:
        # 8 bytes of slack: each symbol is one unconditional 8-byte store
        out = np.empty(size + MAX_SYMBOL_LEN, dtype=np.uint8)
        rc = lib.fsst_decode(
            _ptr(b),
            ctypes.c_int64(len(b)),
            _ptr(self._packed),
            _ptr(self._lens_u8),
            ctypes.c_int32(self._n),
            _ptr(out),
            ctypes.c_int64(size),
        )
        if rc != 0:
            raise _corrupt(_DECODE_ERRORS.get(rc, f"fsst_decode rc={rc}"))
        return out[:size]

    def _decode_numpy(self, b: np.ndarray, size: int) -> np.ndarray:
        mv = memoryview(b)  # uvarint_decode needs int items
        try:
            n_blocks, pos = uvarint_decode(mv, 0)
            if n_blocks > len(mv):  # each block length takes a byte
                raise IndexError
            block_lens = np.empty(n_blocks, dtype=np.int64)
            for i in range(n_blocks):
                block_lens[i], pos = uvarint_decode(mv, pos)
        except IndexError:
            raise _corrupt(_DECODE_ERRORS[1]) from None
        b = b[pos:]
        n = len(b)
        if int(block_lens.sum()) != n:
            raise _corrupt(_DECODE_ERRORS[5])
        if n == 0:
            if size:
                raise _corrupt(_DECODE_ERRORS[4])
            return np.empty(0, dtype=np.uint8)
        roots = np.zeros(n_blocks, dtype=np.int64)
        np.cumsum(block_lens[:-1], out=roots[1:])
        step = np.where(b == ESCAPE, 2, 1)
        starts = _path_positions(step, n, roots)
        tok = b[starts]
        is_esc = tok == ESCAPE
        if is_esc[-1] and starts[-1] == n - 1:
            raise _corrupt(_DECODE_ERRORS[1])
        lens = np.append(self._lens_u8, 0).astype(np.int64)  # escape: 0
        if ((lens[tok] == 0) & ~is_esc).any():
            raise _corrupt(_DECODE_ERRORS[2])
        out_len = np.where(is_esc, 1, lens[tok])
        out_off = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(out_len, out=out_off[1:])
        if int(out_off[-1]) != size:
            raise _corrupt(_DECODE_ERRORS[3 if out_off[-1] > size else 4])
        out = np.empty(size, dtype=np.uint8)
        # escapes: literal byte
        out[out_off[:-1][is_esc]] = b[starts[is_esc] + 1]
        # symbols: gather from the padded symbol matrix
        sym_mask = ~is_esc
        if sym_mask.any():
            s_codes = tok[sym_mask].astype(np.int64)
            s_lens = lens[s_codes]
            total = int(s_lens.sum())
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(s_lens) - s_lens, s_lens
            )
            src = np.repeat(s_codes * MAX_SYMBOL_LEN, s_lens) + within
            dst = np.repeat(out_off[:-1][sym_mask], s_lens) + within
            out[dst] = self._packed.ravel()[src]
        return out


# fsst_decode's return codes (the FSST_* enum in _fsst_native.c); the
# numpy decoder raises the same messages
_DECODE_ERRORS = {
    1: "code stream is truncated",
    2: "code outside the symbol table",
    3: "code stream decodes past the value lengths",
    4: "code stream decodes short of the value lengths",
    5: "block lengths do not match the code stream",
}


def _corrupt(msg: str) -> Exception:
    from .chunk import ChunkError  # chunk imports this module

    return ChunkError(f"corrupt FSST payload: {msg}")


def train(data, max_symbols: int = MAX_SYMBOLS, iters: int = TRAIN_ITERS) -> SymbolTable:
    """Train a symbol table on the first TRAIN_SAMPLE bytes of data
    (bytes or any buffer; only the sample is copied). Runs the native
    kernel when it is loaded, else the numpy reference; both return the
    same table."""
    sample = bytes(data[:TRAIN_SAMPLE])
    if not sample:
        return SymbolTable([])
    lib = _native()
    if lib is not None:
        return _train_native(lib, sample, max_symbols, iters)
    return _train_numpy(sample, max_symbols, iters)


def _train_native(lib, sample: bytes, max_symbols: int, iters: int) -> SymbolTable:
    buf = np.frombuffer(sample, dtype=np.uint8)
    packed = np.zeros((MAX_SYMBOLS, 8), dtype=np.uint8)
    lens = np.zeros(MAX_SYMBOLS, dtype=np.uint8)
    n_syms = ctypes.c_int32(0)
    rc = lib.fsst_train(
        _ptr(buf),
        ctypes.c_int64(len(buf)),
        ctypes.c_int32(max_symbols),
        ctypes.c_int32(iters),
        _ptr(packed),
        _ptr(lens),
        ctypes.byref(n_syms),
    )
    if rc == 1:
        raise ValueError(f"fsst_train: bad argument (max_symbols={max_symbols})")
    if rc != 0:
        raise MemoryError(f"native fsst_train failed rc={rc}")
    n = n_syms.value
    table = SymbolTable.__new__(SymbolTable)
    table._build(lens[:n], packed[:n][np.arange(MAX_SYMBOL_LEN) < lens[:n, None]])
    return table


def _train_numpy(sample: bytes, max_symbols: int, iters: int) -> SymbolTable:
    """Reference trainer: at each round, tokenize the sample with the
    current table, count token and adjacent-token-pair substrings, keep the
    max_symbols candidates with the highest apparent gain (count × length),
    ties broken by key, then length."""
    buf = np.frombuffer(sample, dtype=np.uint8)
    n = len(buf)
    table = SymbolTable([])
    w = _windows_u64(buf.astype(np.uint64))
    for _ in range(iters):
        starts, lengths, _codes = table.tokenize(sample)
        # candidate substrings: every token, and every adjacent token pair
        # (pairs are contiguous substrings of the sample)
        cand_starts = [starts, starts[:-1]]
        pair_len = lengths[:-1] + lengths[1:]
        cand_lens = [lengths, pair_len]
        starts_all = np.concatenate(cand_starts)
        lens_all = np.concatenate(cand_lens)
        ok = (lens_all <= MAX_SYMBOL_LEN) & (starts_all + lens_all <= n)
        starts_all, lens_all = starts_all[ok], lens_all[ok]
        # key = masked 8-byte window + length → a (key, len) composite
        keys = w[starts_all]
        shift = (_U64(64) - lens_all.astype(np.uint64) * _U64(8)).astype(np.uint64)
        keys = np.where(
            lens_all == 8, keys, (keys << shift) >> shift
        )
        # count (key, len) pairs via one lexsort + run-length scan
        lens_u = lens_all.astype(np.uint64)
        order0 = np.lexsort((lens_u, keys))
        k_s, l_s = keys[order0], lens_u[order0]
        if len(k_s) == 0:
            return table
        change = np.concatenate(
            ([True], (k_s[1:] != k_s[:-1]) | (l_s[1:] != l_s[:-1]))
        )
        starts_u = np.nonzero(change)[0]
        counts = np.diff(np.concatenate((starts_u, [len(k_s)])))
        ukeys, ulens = k_s[starts_u], l_s[starts_u]
        gain = (counts * ulens).astype(np.int64)
        order = np.lexsort((ulens, ukeys, -gain))
        top = order[:max_symbols]
        symbols = [
            int(ukeys[i]).to_bytes(8, "little")[: int(ulens[i])] for i in top
        ]
        table = SymbolTable(symbols)
    return table


# ------------------------------------------------------- byte-array codec


def encode_byte_array(
    data, offsets: np.ndarray, table: SymbolTable | None = None
) -> bytes:
    """FSST codec for a string/binary column chunk (`data` is any buffer).

    Layout: [symbol table][uvarint len(lengths_block)][DELTA_BINARY_PACKED
    int32 value lengths][uvarint n_codes][FSST code stream]. The whole
    concatenated value buffer is compressed as one stream (symbol matches
    may span value boundaries; decode reconstructs the exact buffer and
    re-splits at offsets). Pass `table` to reuse a trained symbol table
    (e.g. the codec selector's trial table) instead of retraining.
    """
    from . import delta

    if table is None:
        table = train(data)
    codes = table.encode(data)
    lengths = np.diff(np.asarray(offsets, dtype=np.int64)).astype(np.int32)
    lblock = delta.encode_binary_packed(lengths, 32)
    return b"".join(
        (
            table.serialize(),
            uvarint_encode(len(lblock)),
            lblock,
            uvarint_encode(len(codes)),
            codes,
        )
    )


def decode_byte_array(buf, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of encode_byte_array for a chunk of `n` values: (value
    bytes as a uint8 array, int64 offsets of length n + 1). The value
    bytes are decoded once, straight into the array that callers hand to
    Arrow. Raises ChunkError on a corrupt payload."""
    buf = memoryview(buf)
    table, pos = SymbolTable.deserialize(buf, 0)
    try:
        blen, pos = uvarint_decode(buf, pos)
        lengths = _decode_lengths(buf[pos : pos + blen], n)
        clen, pos = uvarint_decode(buf, pos + blen)
    except IndexError:
        raise _corrupt("payload is truncated") from None
    if pos + clen != len(buf):
        raise _corrupt(f"code stream is {len(buf) - pos} bytes, header says {clen}")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return table.decode(buf[pos:], int(offsets[-1])), offsets


def _decode_lengths(block, n: int) -> np.ndarray:
    """The n value lengths of a DELTA_BINARY_PACKED lengths block."""
    from . import delta

    # header: block size, miniblocks, value count — checked before the
    # count sizes anything
    _, pos = uvarint_decode(block, 0)
    _, pos = uvarint_decode(block, pos)
    count, _ = uvarint_decode(block, pos)
    if count != n:
        raise _corrupt(f"lengths block holds {count} values, the chunk {n}")
    try:
        lengths, _ = delta.decode_binary_packed(block, 32)
    except ValueError as e:
        raise _corrupt(f"lengths block: {e}") from e
    if n and int(lengths.min()) < 0:
        raise _corrupt("negative value length")
    return lengths
