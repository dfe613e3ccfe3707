/* FSST native kernels: greedy tokenizer, decoder and symbol-table trainer.
 *
 * Compiled at runtime with the system compiler when available (see
 * native.py::load); the vectorized numpy implementation in fsst.py
 * remains the reference/fallback. The stream format is the same on both
 * paths: [uvarint n_blocks][uvarint code bytes per input BLOCK]... then
 * the code stream (escape 255 + literal byte). fsst_encode and
 * fsst_decode read and write the block-length header themselves, and
 * fsst_train returns the same symbol list as fsst.py's numpy trainer.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_SYMS 255
#define MAX_SYM_LEN 8
#define ESCAPE 255
#define BLOCK 4096
#define NONE (-1)

#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
/* FSST-paper probe: one masked 64-bit compare per chain entry instead of
 * a memcmp call (symbols are stored zero-padded to 8 bytes; on
 * little-endian a low-bytes mask keeps the first l bytes). ~2x on
 * html/text chunks. */
#define USE_WORDS 1
#else
#define USE_WORDS 0
#endif

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

/* Greedy longest-match lookup structures for one symbol table. */
typedef struct {
    /* per-2-byte-prefix chains of symbols with len >= 3, longest first */
    int32_t head[65536];
    int32_t nxt[MAX_SYMS];
    /* FSST-paper shortCodes split: len-2 symbols resolve via ONE
     * direct-table load, so the common position never walks a chain */
    int16_t best2[65536];
    int16_t l1[256];
    uint64_t sym_word[MAX_SYMS], sym_mask[MAX_SYMS];
    uint8_t sym_bytes[MAX_SYMS * 8];
    uint8_t sym_lens[MAX_SYMS];
} matcher;

static uint64_t low_bytes_mask(int len)
{
    return len >= 8 ? ~(uint64_t)0 : (((uint64_t)1 << (8 * len)) - 1);
}

static void matcher_build(matcher *m, const uint8_t *sym_bytes,
                          const uint8_t *sym_lens, int32_t n_syms)
{
    int32_t i;
    int len;
    memcpy(m->sym_bytes, sym_bytes, (size_t)n_syms * 8);
    memcpy(m->sym_lens, sym_lens, (size_t)n_syms);
    memset(m->l1, -1, sizeof(m->l1));
    memset(m->best2, -1, sizeof(m->best2));
    for (i = 0; i < 65536; i++) m->head[i] = NONE;
    /* insert ascending by length so each chain ends longest-first */
    for (len = 3; len <= MAX_SYM_LEN; len++) {
        for (i = 0; i < n_syms; i++) {
            if (sym_lens[i] != len) continue;
            int p = sym_bytes[i * 8] | (sym_bytes[i * 8 + 1] << 8);
            m->nxt[i] = m->head[p];
            m->head[p] = i;
        }
    }
    for (i = 0; i < n_syms; i++)
        if (sym_lens[i] == 2)
            m->best2[sym_bytes[i * 8] | (sym_bytes[i * 8 + 1] << 8)] = (int16_t)i;
    for (i = 0; i < n_syms; i++)
        if (sym_lens[i] == 1) m->l1[sym_bytes[i * 8]] = (int16_t)i;
    for (i = 0; i < n_syms; i++) {
        uint64_t w;
        memcpy(&w, sym_bytes + i * 8, 8);
        m->sym_mask[i] = low_bytes_mask(sym_lens[i]);
        m->sym_word[i] = w & m->sym_mask[i];
    }
}

/* Code of the longest symbol that is a prefix of p[0..rem) (rem >= 1),
 * with its length in *len; -1 if none. */
static inline int matcher_match(const matcher *m, const uint8_t *p,
                                int64_t rem, int *len)
{
    if (rem >= 2) {
        int pre = p[0] | (p[1] << 8);
        int32_t s = m->head[pre];
        if (s != NONE) {
#if USE_WORDS
            uint64_t w;
            if (rem >= 8) {
                memcpy(&w, p, 8);
            } else {
                /* zero-padded tail load: symbols longer than rem are
                 * rejected by the length check, and shorter masks only
                 * see real bytes */
                w = 0;
                memcpy(&w, p, (size_t)rem);
            }
            for (; s != NONE; s = m->nxt[s]) {
                int l = m->sym_lens[s];
                if (l <= rem && (w & m->sym_mask[s]) == m->sym_word[s]) {
                    *len = l;
                    return s;
                }
            }
#else
            for (; s != NONE; s = m->nxt[s]) {
                int l = m->sym_lens[s];
                if (l <= rem && memcmp(p, m->sym_bytes + s * 8, l) == 0) {
                    *len = l;
                    return s;
                }
            }
#endif
        }
        if (m->best2[pre] >= 0) {
            *len = 2;
            return m->best2[pre];
        }
    }
    if (m->l1[p[0]] >= 0) {
        *len = 1;
        return m->l1[p[0]];
    }
    return -1;
}

/* Largest stream fsst_encode writes for n input bytes: every byte an
 * escape pair, plus the block-length header. */
static int64_t encode_bound(int64_t n)
{
    return 2 * n + header_bound(n);
}

/* encode: greedy longest-match per position, matches never cross a
 * BLOCK boundary. Writes the whole stream, [uvarint n_blocks][uvarint
 * code bytes per block]...[codes], to out[*start .. *start + *out_len):
 * the codes go after room for the longest header, and the header is
 * written right before them once the block lengths are known.
 * block_lens is scratch for n / BLOCK + 1 values. Returns 0 on success,
 * 1 if out_cap < 2 * n + 10 + 2 * (n / BLOCK + 1). */
int fsst_encode(const uint8_t *data, int64_t n,
                const uint8_t *sym_bytes, /* MAX_SYMS * 8, padded */
                const uint8_t *sym_lens,  /* MAX_SYMS */
                int32_t n_syms,
                uint8_t *out, int64_t out_cap,
                int64_t *block_lens,
                int64_t *start, int64_t *out_len)
{
    if (n < 0 || out_cap < encode_bound(n)) return 1;
    matcher m;
    matcher_build(&m, sym_bytes, sym_lens, n_syms);
    int64_t hdr_cap = header_bound(n);
    int64_t pos = 0, o = hdr_cap, nb = 0;
    while (pos < n) {
        int64_t block_end = pos + BLOCK;
        if (block_end > n) block_end = n;
        int64_t o_start = o;
        while (pos < block_end) {
            int len;
            int code = matcher_match(&m, data + pos, block_end - pos, &len);
            if (code >= 0) {
                out[o++] = (uint8_t)code;
                pos += len;
            } else {
                out[o++] = ESCAPE;
                out[o++] = data[pos];
                pos += 1;
            }
        }
        block_lens[nb++] = o - o_start;
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
    uint64_t w = 0;
#if USE_WORDS
    if (n - pos >= 8) {
        memcpy(&w, data + pos, 8);
        return w & low_bytes_mask(len);
    }
#endif
    for (int i = 0; i < len; i++) w |= (uint64_t)data[pos + i] << (8 * i);
    return w;
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
    matcher *m = malloc(sizeof(matcher));
    int rc = 2;
    if (!c.slots || !c.used || !heap || !m) goto done;
    c.mask = ((uint64_t)1 << bits) - 1;
    c.shift = 64 - bits;
    c.gen = 0;
    matcher_build(m, sym_bytes, sym_lens, 0);
    for (int32_t round = 0; round < iters; round++) {
        if (++c.gen == 0) { /* stamp wrapped: forget every slot once */
            memset(c.slots, 0, ((size_t)1 << bits) * sizeof(cand_slot));
            c.gen = 1;
        }
        c.n_used = 0;
        int64_t prev_start = -1;
        int prev_len = 0;
        for (int64_t pos = 0; pos < n;) {
            int64_t block_end = (pos / BLOCK + 1) * BLOCK;
            if (block_end > n) block_end = n;
            int len;
            if (matcher_match(m, data + pos, block_end - pos, &len) < 0)
                len = 1;
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
        matcher_build(m, sym_bytes, sym_lens, size);
    }
    rc = 0;
done:
    free(c.slots);
    free(c.used);
    free(heap);
    free(m);
    return rc;
}
