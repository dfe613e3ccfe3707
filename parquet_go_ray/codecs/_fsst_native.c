/* FSST native kernels: greedy tokenizer, decoder and symbol-table trainer.
 *
 * Compiled at runtime with the system compiler when available (see
 * native.py::load); the vectorized numpy implementation in fsst.py
 * remains the reference/fallback. The stream format is the same on both
 * paths: [uvarint n_blocks][uvarint code bytes per input BLOCK]... then
 * the code stream (escape 255 + literal byte). fsst_encode and
 * fsst_decode read and write the block-length header themselves, and
 * fsst_train returns the same symbol list as fsst.py's numpy trainer.
 * The encoder and the trainer share one symbol lookup (fsst_lookup):
 * fsst_encode's caller builds it once per table, the trainer once per
 * round.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_SYMS 255
#define MAX_SYM_LEN 8
#define ESCAPE 255
#define BLOCK 4096

/* LEB128 varints of the stream's block-length header */
static int uvarint_len(uint64_t v)
{
    int l = 1;
    while (v >= 0x80) {
        v >>= 7;
        l++;
    }
    return l;
}

static int uvarint_put(uint8_t *p, uint64_t v)
{
    int l = 0;
    while (v >= 0x80) {
        p[l++] = (uint8_t)(v | 0x80);
        v >>= 7;
    }
    p[l++] = (uint8_t)v;
    return l;
}

/* Reads one varint of p[0..n) at i into *v; returns the position after
 * it, or -1 if it runs past n or past 10 bytes. */
static int64_t uvarint_get(const uint8_t *p, int64_t n, int64_t i,
                           uint64_t *v)
{
    uint64_t x = 0;
    for (int shift = 0; shift < 70 && i < n; shift += 7) {
        uint8_t b = p[i++];
        x |= (uint64_t)(b & 0x7F) << shift;
        if (!(b & 0x80)) {
            *v = x;
            return i;
        }
    }
    return -1;
}

/* Longest block-length header of a stream for n input bytes: one varint
 * for the block count and at most two bytes per block (a block's codes
 * are at most 2 * BLOCK bytes, under 2^14). */
static int64_t header_bound(int64_t n)
{
    return 10 + 2 * (n / BLOCK + 1);
}

/* ------------------------------------------------------------ lookup */

/* The encoder's symbol lookup, after the FSST paper: one direct table for
 * the 1- and 2-byte symbols and a hash table on the 3-byte prefix for the
 * longer ones. It is an exact greedy longest match: at every position it
 * picks the same symbol as a walk over all symbols, longest first and, of
 * equal symbols, the highest code. A lookup result is (len << 8) | code;
 * the escape is one input byte with code ESCAPE. */
#define HASH_BITS 10
#define HASH_SLOTS (1 << HASH_BITS)
#define ESC_RESULT ((1u << 8) | ESCAPE)

/* Words are little-endian: byte i of the input is bits 8i..8i+7. */
static inline uint64_t load_le64(const uint8_t *p)
{
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    uint64_t w;
    memcpy(&w, p, 8);
    return w;
#else
    uint64_t w = 0;
    for (int i = 0; i < 8; i++) w |= (uint64_t)p[i] << (8 * i);
    return w;
#endif
}

/* The first rem (< 8) bytes at p, zero-padded. */
static inline uint64_t load_le_tail(const uint8_t *p, int64_t rem)
{
    uint64_t w = 0;
    for (int64_t i = 0; i < rem; i++) w |= (uint64_t)p[i] << (8 * i);
    return w;
}

static inline uint64_t low_bytes_mask(int len)
{
    return len >= 8 ? ~(uint64_t)0 : (((uint64_t)1 << (8 * len)) - 1);
}

static inline uint32_t hash3(uint64_t w)
{
    return ((uint32_t)(w & 0xFFFFFF) * 0x9E3779B1u) >> (32 - HASH_BITS);
}

/* One symbol of 3..8 bytes: it matches word w when
 * (w & (~0 >> shift)) == word. */
typedef struct {
    uint64_t word;
    uint16_t result;
    uint8_t shift;
} long_sym;

/* A hash slot keeps its two longest symbols inline, so the common
 * position is decided with two compares and conditional moves; the rest
 * go on an overflow run more[first_more .. first_more + n_more), walked
 * only when neither inline symbol matches. An empty inline entry is a
 * word no masked input can equal. */
typedef struct {
    uint64_t word[2];
    uint16_t result[2];
    uint8_t shift[2];
    uint8_t first_more, n_more;
} hash_slot;

typedef struct {
    /* per 2-byte prefix: the 2-byte symbol, else the 1-byte symbol of
     * the first byte, else the escape */
    uint16_t short_codes[65536];
    /* per byte: the 1-byte symbol, else the escape */
    uint16_t byte_codes[256];
    hash_slot slots[HASH_SLOTS];
    long_sym more[MAX_SYMS];
} fsst_lookup;

int32_t fsst_lookup_size(void)
{
    return (int32_t)sizeof(fsst_lookup);
}

/* The slot a 3-byte prefix hashes to (exported for tests that need
 * symbols that share a slot). */
int32_t fsst_hash_slot(const uint8_t *prefix3)
{
    return (int32_t)hash3(load_le_tail(prefix3, 3));
}

/* Builds the lookup for symbols sym_bytes (8 bytes each, zero-padded) /
 * sym_lens. Returns 0, or 1 on a bad symbol count. */
int fsst_lookup_build(const uint8_t *sym_bytes, const uint8_t *sym_lens,
                      int32_t n_syms, fsst_lookup *lk)
{
    if (n_syms < 0 || n_syms > MAX_SYMS) return 1;
    int32_t i;
    for (i = 0; i < 256; i++) lk->byte_codes[i] = ESC_RESULT;
    for (i = 0; i < n_syms; i++)
        if (sym_lens[i] == 1)
            lk->byte_codes[sym_bytes[i * 8]] = (uint16_t)((1 << 8) | i);
    /* row b of short_codes holds the prefixes whose second byte is b */
    for (i = 0; i < 256; i++)
        memcpy(lk->short_codes + (i << 8), lk->byte_codes, sizeof(lk->byte_codes));
    for (i = 0; i < n_syms; i++)
        if (sym_lens[i] == 2)
            lk->short_codes[sym_bytes[i * 8] | (sym_bytes[i * 8 + 1] << 8)] =
                (uint16_t)((2 << 8) | i);
    /* long symbols in match order: longest first, then highest code */
    int32_t order[MAX_SYMS], n_long = 0;
    for (int len = MAX_SYM_LEN; len >= 3; len--)
        for (i = n_syms - 1; i >= 0; i--)
            if (sym_lens[i] == len) order[n_long++] = i;
    int n_in[HASH_SLOTS];
    memset(n_in, 0, sizeof(n_in));
    for (i = 0; i < HASH_SLOTS; i++) {
        hash_slot *s = &lk->slots[i];
        s->word[0] = s->word[1] = ~(uint64_t)0;
        s->shift[0] = s->shift[1] = 40; /* 3-byte mask: never ~0 */
        s->result[0] = s->result[1] = 0;
        s->first_more = s->n_more = 0;
    }
    /* overflow runs are contiguous per slot: count them first */
    for (i = 0; i < n_long; i++) {
        uint32_t h = hash3(load_le64(sym_bytes + order[i] * 8));
        if (n_in[h]++ >= 2) lk->slots[h].n_more++;
    }
    int next = 0;
    for (i = 0; i < HASH_SLOTS; i++) {
        lk->slots[i].first_more = (uint8_t)next;
        next += lk->slots[i].n_more;
        n_in[i] = 0;
    }
    for (i = 0; i < n_long; i++) {
        int32_t code = order[i];
        int len = sym_lens[code];
        uint64_t word = load_le64(sym_bytes + code * 8) & low_bytes_mask(len);
        uint16_t result = (uint16_t)((len << 8) | code);
        uint8_t shift = (uint8_t)(64 - 8 * len);
        uint32_t h = hash3(word);
        hash_slot *s = &lk->slots[h];
        int k = n_in[h]++;
        if (k < 2) {
            s->word[k] = word;
            s->result[k] = result;
            s->shift[k] = shift;
        } else {
            long_sym *m = &lk->more[s->first_more + k - 2];
            m->word = word;
            m->result = result;
            m->shift = shift;
        }
    }
    return 0;
}

static inline int sym_matches(uint64_t w, uint64_t word, int shift)
{
    return (w & (~(uint64_t)0 >> shift)) == word;
}

/* First overflow symbol of slot s that matches w and fits in rem bytes,
 * else fallback. */
static uint32_t lookup_more(const fsst_lookup *lk, const hash_slot *s,
                            uint64_t w, int64_t rem, uint32_t fallback)
{
    const long_sym *m = lk->more + s->first_more;
    for (int k = 0; k < s->n_more; k++)
        if ((m[k].result >> 8) <= rem && sym_matches(w, m[k].word, m[k].shift))
            return m[k].result;
    return fallback;
}

/* Lookup at a position with at least 8 bytes left in its block; w holds
 * those 8 bytes. Every symbol fits, so the inline pair is decided with
 * conditional moves; the overflow walk is the rare branch. */
static inline uint32_t lookup_word(const fsst_lookup *lk, uint64_t w)
{
    const hash_slot *s = &lk->slots[hash3(w)];
    uint32_t sc = lk->short_codes[w & 0xFFFF];
    uint32_t r = sc;
    r = sym_matches(w, s->word[1], s->shift[1]) ? s->result[1] : r;
    r = sym_matches(w, s->word[0], s->shift[0]) ? s->result[0] : r;
    if (__builtin_expect(r == sc && s->n_more, 0))
        r = lookup_more(lk, s, w, 8, sc);
    return r;
}

/* Exact lookup at p with rem >= 1 bytes left in its block. */
static uint32_t lookup_at(const fsst_lookup *lk, const uint8_t *p,
                          int64_t rem)
{
    if (rem >= 8) return lookup_word(lk, load_le64(p));
    if (rem == 1) return lk->byte_codes[p[0]];
    uint64_t w = load_le_tail(p, rem);
    uint32_t sc = lk->short_codes[w & 0xFFFF];
    if (rem == 2) return sc;
    const hash_slot *s = &lk->slots[hash3(w)];
    for (int k = 0; k < 2; k++)
        if ((s->result[k] >> 8) <= rem &&
            sym_matches(w, s->word[k], s->shift[k]))
            return s->result[k];
    return lookup_more(lk, s, w, rem, sc);
}

/* Largest stream fsst_encode writes for n input bytes: every byte an
 * escape pair, plus the block-length header. */
static int64_t encode_bound(int64_t n)
{
    return 2 * n + header_bound(n);
}

#define LANES 4

/* One token of a lane whose position has 8 bytes left in its block: the
 * code and the input byte are both written, and the byte is kept only
 * after an escape. */
#define TOKEN_WORD(k)                                                  \
    do {                                                               \
        uint32_t r_ = lookup_word(lk, load_le64(data + pos[k]));        \
        uint32_t c_ = r_ & 0xFF;                                       \
        q[k][0] = (uint8_t)c_;                                         \
        q[k][1] = data[pos[k]];                                        \
        q[k] += 1 + (c_ == ESCAPE);                                    \
        pos[k] += r_ >> 8;                                             \
    } while (0)

/* encode: greedy longest-match per position, matches never cross a
 * BLOCK boundary. Blocks are independent, so LANES of them are tokenized
 * in one interleaved loop: each token is a chain of dependent loads, and
 * four chains keep the memory pipeline busy where one waits. Each lane
 * writes to its own scratch, copied out in block order. The last 8 bytes
 * of a block take the exact lookup, which checks that a symbol fits.
 *
 * Writes the whole stream, [uvarint n_blocks][uvarint code bytes per
 * block]...[codes], to out[*start .. *start + *out_len): the codes go
 * after room for the longest header, and the header is written right
 * before them once the block lengths are known. lk is the table's lookup
 * (fsst_lookup_build); block_lens is scratch for n / BLOCK + 1 values.
 * Returns 0 on success, 1 if out_cap < 2 * n + 10 + 2 * (n / BLOCK + 1). */
int fsst_encode(const uint8_t *data, int64_t n, const fsst_lookup *lk,
                uint8_t *out, int64_t out_cap, int64_t *block_lens,
                int64_t *start, int64_t *out_len)
{
    if (n < 0 || out_cap < encode_bound(n)) return 1;
    /* a lane's codes are at most 2 * BLOCK bytes; +1 for the byte every
     * token writes after its code */
    uint8_t scratch[LANES][2 * BLOCK + 1];
    int64_t hdr_cap = header_bound(n);
    int64_t o = hdr_cap, nb = (n + BLOCK - 1) / BLOCK;
    for (int64_t b0 = 0; b0 < nb; b0 += LANES) {
        int lanes = nb - b0 < LANES ? (int)(nb - b0) : LANES;
        int64_t pos[LANES], end[LANES];
        uint8_t *q[LANES];
        for (int k = 0; k < lanes; k++) {
            pos[k] = (b0 + k) * BLOCK;
            end[k] = pos[k] + BLOCK < n ? pos[k] + BLOCK : n;
            q[k] = scratch[k];
        }
        if (lanes == LANES)
            while (pos[0] + 8 <= end[0] && pos[1] + 8 <= end[1] &&
                   pos[2] + 8 <= end[2] && pos[3] + 8 <= end[3]) {
                TOKEN_WORD(0);
                TOKEN_WORD(1);
                TOKEN_WORD(2);
                TOKEN_WORD(3);
            }
        for (int k = 0; k < lanes; k++) {
            while (pos[k] + 8 <= end[k]) TOKEN_WORD(k);
            while (pos[k] < end[k]) {
                uint32_t r = lookup_at(lk, data + pos[k], end[k] - pos[k]);
                uint32_t c = r & 0xFF;
                q[k][0] = (uint8_t)c;
                q[k][1] = data[pos[k]];
                q[k] += 1 + (c == ESCAPE);
                pos[k] += r >> 8;
            }
            int64_t len = q[k] - scratch[k];
            memcpy(out + o, scratch[k], (size_t)len);
            o += len;
            block_lens[b0 + k] = len;
        }
    }
    int64_t h = uvarint_len(nb);
    for (int64_t b = 0; b < nb; b++) h += uvarint_len(block_lens[b]);
    int64_t w = hdr_cap - h;
    *start = w;
    w += uvarint_put(out + w, nb);
    for (int64_t b = 0; b < nb; b++) w += uvarint_put(out + w, block_lens[b]);
    *out_len = o - *start;
    return 0;
}

/* decode one stream as fsst_encode writes it into out[0 .. size), where
 * size is the decoded length the caller knows (the sum of the value
 * lengths) and out has 8 more bytes of slack: each symbol code is one
 * unconditional 8-byte store, and the bounds check before it keeps the
 * symbol's real length inside size. Returns 0 when the stream decodes
 * to exactly size bytes, else one of the FSST_* error codes. */
enum {
    FSST_TRUNCATED = 1,  /* header runs past the stream, or an escape is
                            the last byte */
    FSST_BAD_CODE = 2,   /* a code >= n_syms that is not the escape */
    FSST_OVERFLOW = 3,   /* the output would pass size */
    FSST_SHORT = 4,      /* the stream decodes to fewer than size bytes */
    FSST_BAD_HEADER = 5, /* the block lengths do not sum to the code bytes */
};

int fsst_decode(const uint8_t *stream, int64_t n,
                const uint8_t *sym_bytes, const uint8_t *sym_lens,
                int32_t n_syms,
                uint8_t *out, int64_t size)
{
    uint64_t sym[256];
    uint8_t lens[256];
    uint64_t n_blocks, block_len, code_bytes = 0;
    if (n_syms < 0 || n_syms > MAX_SYMS) return FSST_BAD_CODE;
    int64_t i = uvarint_get(stream, n, 0, &n_blocks);
    for (uint64_t b = 0; i >= 0 && b < n_blocks; b++) {
        i = uvarint_get(stream, n, i, &block_len);
        code_bytes += block_len;
    }
    if (i < 0) return FSST_TRUNCATED;
    if (code_bytes != (uint64_t)(n - i)) return FSST_BAD_HEADER;
    /* codes >= n_syms (and the escape) get length 0, so one load tells a
     * symbol from everything else */
    memset(lens, 0, sizeof(lens));
    memcpy(sym, sym_bytes, (size_t)n_syms * 8);
    memcpy(lens, sym_lens, (size_t)n_syms);
    int64_t o = 0;
    while (i < n) {
        uint8_t c = stream[i];
        int l = lens[c];
        if (l) {
            if (o + l > size) return FSST_OVERFLOW;
            memcpy(out + o, &sym[c], 8);
            o += l;
            i += 1;
        } else if (c == ESCAPE) {
            if (i + 1 >= n) return FSST_TRUNCATED;
            if (o >= size) return FSST_OVERFLOW;
            out[o++] = stream[i + 1];
            i += 2;
        } else {
            return FSST_BAD_CODE;
        }
    }
    return o == size ? 0 : FSST_SHORT;
}

/* ------------------------------------------------------------ training */

/* One (substring, length) candidate: key is the substring as a
 * zero-padded little-endian uint64, so lengths must be kept apart. */
typedef struct {
    uint64_t key;
    uint32_t count;
    uint16_t gen; /* round that last wrote the slot; stale slots are empty */
    uint8_t len;
} cand_slot;

typedef struct {
    int64_t gain;
    uint64_t key;
    int len;
} cand;

/* Rank order of fsst.py's np.lexsort((ulens, ukeys, -gain)): gain
 * descending, then key ascending, then length ascending. */
static int ranks_before(const cand *a, const cand *b)
{
    if (a->gain != b->gain) return a->gain > b->gain;
    if (a->key != b->key) return a->key < b->key;
    return a->len < b->len;
}

/* Heap whose root is the lowest-ranked candidate it holds. */
static void heap_sift_down(cand *h, int size, int i)
{
    for (;;) {
        int l = 2 * i + 1, r = l + 1, worst = i;
        if (l < size && ranks_before(&h[worst], &h[l])) worst = l;
        if (r < size && ranks_before(&h[worst], &h[r])) worst = r;
        if (worst == i) return;
        cand t = h[i];
        h[i] = h[worst];
        h[worst] = t;
        i = worst;
    }
}

static void heap_sift_up(cand *h, int i)
{
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (!ranks_before(&h[parent], &h[i])) return;
        cand t = h[i];
        h[i] = h[parent];
        h[parent] = t;
        i = parent;
    }
}

/* data[pos..pos+len) as a zero-padded little-endian uint64 */
static inline uint64_t key_at(const uint8_t *data, int64_t n, int64_t pos,
                              int len)
{
    if (n - pos >= 8) return load_le64(data + pos) & low_bytes_mask(len);
    return load_le_tail(data + pos, len);
}

typedef struct {
    cand_slot *slots;
    uint64_t mask;
    int shift;
    uint16_t gen;
    int32_t *used; /* slots first written this round */
    int64_t n_used;
} counter;

static inline void counter_add(counter *c, uint64_t key, int len)
{
    uint64_t h = (key ^ ((uint64_t)len * 0xD6E8FEB86659FD93ULL)) *
                 0x9E3779B97F4A7C15ULL;
    uint64_t i = h >> c->shift;
    for (;; i = (i + 1) & c->mask) {
        cand_slot *s = &c->slots[i];
        if (s->gen != c->gen) {
            s->gen = c->gen;
            s->key = key;
            s->len = (uint8_t)len;
            s->count = 1;
            c->used[c->n_used++] = (int32_t)i;
            return;
        }
        if (s->key == key && s->len == len) {
            s->count++;
            return;
        }
    }
}

/* Train a symbol table on data[0..n) (the caller passes the bounded
 * sample): `iters` rounds of greedy tokenization with the current table,
 * counting every token and every adjacent token pair of length <= 8,
 * then keeping the `max_syms` candidates of highest count x length.
 * Writes the symbols best-first to sym_bytes (zero-padded to 8) /
 * sym_lens and their number to *n_syms. Returns 0 on success, 1 on a bad
 * argument, 2 when out of memory. */
int fsst_train(const uint8_t *data, int64_t n, int32_t max_syms,
               int32_t iters,
               uint8_t *sym_bytes, /* MAX_SYMS * 8 */
               uint8_t *sym_lens,  /* MAX_SYMS */
               int32_t *n_syms)
{
    if (n < 0 || n > ((int64_t)1 << 28) || max_syms < 0 ||
        max_syms > MAX_SYMS)
        return 1;
    *n_syms = 0;
    if (n == 0) return 0;
    /* a round has at most 2n candidates: keep the table at most half full */
    int bits = 4;
    while (((int64_t)1 << bits) < 4 * n) bits++;
    counter c;
    c.slots = calloc((size_t)1 << bits, sizeof(cand_slot));
    c.used = malloc((size_t)(2 * n) * sizeof(int32_t));
    cand *heap = malloc((MAX_SYMS + 1) * sizeof(cand));
    fsst_lookup *lk = malloc(sizeof(fsst_lookup));
    int rc = 2;
    if (!c.slots || !c.used || !heap || !lk) goto done;
    c.mask = ((uint64_t)1 << bits) - 1;
    c.shift = 64 - bits;
    c.gen = 0;
    fsst_lookup_build(sym_bytes, sym_lens, 0, lk);
    for (int32_t round = 0; round < iters; round++) {
        if (++c.gen == 0) { /* stamp wrapped: forget every slot once */
            memset(c.slots, 0, ((size_t)1 << bits) * sizeof(cand_slot));
            c.gen = 1;
        }
        c.n_used = 0;
        int64_t prev_start = -1;
        int prev_len = 0;
        /* one lane: the counting, not the lookup, bounds this loop, and
         * its loads overlap the next position's lookup */
        for (int64_t pos = 0; pos < n;) {
            int64_t block_end = (pos / BLOCK + 1) * BLOCK;
            if (block_end > n) block_end = n;
            int len = (int)(lookup_at(lk, data + pos, block_end - pos) >> 8);
            counter_add(&c, key_at(data, n, pos, len), len);
            /* pairs may span a block boundary: the tokens are still
             * adjacent in the sample */
            if (prev_start >= 0 && prev_len + len <= MAX_SYM_LEN)
                counter_add(&c, key_at(data, n, prev_start, prev_len + len),
                            prev_len + len);
            prev_start = pos;
            prev_len = len;
            pos += len;
        }
        int size = 0;
        for (int64_t u = 0; u < c.n_used; u++) {
            const cand_slot *s = &c.slots[c.used[u]];
            cand x = {(int64_t)s->count * s->len, s->key, s->len};
            if (size < max_syms) {
                heap[size] = x;
                heap_sift_up(heap, size++);
            } else if (size > 0 && ranks_before(&x, &heap[0])) {
                heap[0] = x;
                heap_sift_down(heap, size, 0);
            }
        }
        /* pop lowest-ranked first into the back: best-first order */
        memset(sym_bytes, 0, MAX_SYMS * 8);
        *n_syms = size;
        for (int i = size - 1; i >= 0; i--) {
            for (int b = 0; b < heap[0].len; b++)
                sym_bytes[i * 8 + b] = (uint8_t)(heap[0].key >> (8 * b));
            sym_lens[i] = (uint8_t)heap[0].len;
            heap[0] = heap[i];
            heap_sift_down(heap, i, 0);
        }
        fsst_lookup_build(sym_bytes, sym_lens, size, lk);
    }
    rc = 0;
done:
    free(c.slots);
    free(c.used);
    free(heap);
    free(lk);
    return rc;
}
