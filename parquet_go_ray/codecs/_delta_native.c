/* Delta-encoding hot loops: front-coding (DELTA_BYTE_ARRAY) decode and
 * DELTA_BINARY_PACKED encode and decode. delta.py's numpy code is the
 * reference and the fallback for all three.
 *
 * Front-coding reconstruction is inherently sequential (each value
 * copies a prefix of its predecessor), so the per-value loop lives here
 * instead of Python. No overlap: offsets[i] >= prev_start + prefix[i]
 * always, because prefix[i] <= len(value[i-1]).
 */
#include <stdint.h>
#include <string.h>

int dba_decode(const unsigned char *suffixes,
               long n,
               const long *offsets,
               const int *prefix,
               const int *suffix_lens,
               unsigned char *out)
{
    long spos = 0;
    long prev = 0;
    for (long i = 0; i < n; i++) {
        long start = offsets[i];
        int p = prefix[i];
        int sl = suffix_lens[i];
        if (p)
            memcpy(out + start, out + prev, (size_t)p);
        if (sl) {
            memcpy(out + start + p, suffixes + spos, (size_t)sl);
            spos += sl;
        }
        prev = start;
    }
    return 0;
}

/* DELTA_BINARY_PACKED encode, byte for byte what delta.py's numpy
 * encoder writes (the reference): blocks of 128 deltas in 4 miniblocks
 * of 32, deltas modular in the value width (bits 32 or 64), the last
 * block padded with the last delta, and the unneeded trailing miniblocks
 * written as a width byte of 0 with no body. Miniblocks are bit-packed
 * LSB-first through a 64-bit accumulator. */
#define DBP_BLOCK 128
#define DBP_MINIBLOCKS 4
#define DBP_MB (DBP_BLOCK / DBP_MINIBLOCKS)

static int64_t put_uvarint(uint8_t *p, uint64_t v)
{
    int64_t l = 0;
    while (v >= 0x80) {
        p[l++] = (uint8_t)(v | 0x80);
        v >>= 7;
    }
    p[l++] = (uint8_t)v;
    return l;
}

/* zigzag of v taken as a signed bits-wide value */
static uint64_t zigzag(uint64_t v, int bits)
{
    if (bits == 32) {
        uint32_t x = (uint32_t)v;
        return (uint32_t)((x << 1) ^ (uint32_t)((int32_t)x >> 31));
    }
    return (v << 1) ^ (uint64_t)((int64_t)v >> 63);
}

static void put_le(uint8_t *p, uint64_t v, int nbytes)
{
    for (int i = 0; i < nbytes; i++) p[i] = (uint8_t)(v >> (8 * i));
}

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

/* Largest output for n values: the header, then per block a min varint,
 * the width bytes and four 64-bit-wide miniblocks. */
static int64_t dbp_encode_bound(int64_t n)
{
    int64_t blocks = n > 1 ? (n - 1 + DBP_BLOCK - 1) / DBP_BLOCK : 0;
    return 24 + blocks * (10 + DBP_MINIBLOCKS + DBP_BLOCK * 8);
}

/* Encodes n values (int32 when bits is 32, int64 when 64) to out.
 * Returns the bytes written, or -1 on a bad argument or a short out. */
int64_t dbp_encode(const void *values, int64_t n, int32_t bits,
                   uint8_t *out, int64_t out_cap)
{
    if (n < 0 || (bits != 32 && bits != 64) || out_cap < dbp_encode_bound(n))
        return -1;
    const int32_t *v32 = (const int32_t *)values;
    const int64_t *v64 = (const int64_t *)values;
    uint64_t mask = bits == 32 ? 0xFFFFFFFFu : ~(uint64_t)0;
#define DBP_VALUE(i) (bits == 32 ? (uint64_t)(uint32_t)v32[i] : (uint64_t)v64[i])
    int64_t o = 0;
    o += put_uvarint(out + o, DBP_BLOCK);
    o += put_uvarint(out + o, DBP_MINIBLOCKS);
    o += put_uvarint(out + o, (uint64_t)n);
    o += put_uvarint(out + o, n ? zigzag(DBP_VALUE(0), bits) : 0);
    if (n < 2) return o;
    int64_t nd = n - 1;
    int64_t mb_needed = (nd + DBP_MB - 1) / DBP_MB;
    uint64_t last = (DBP_VALUE(n - 1) - DBP_VALUE(n - 2)) & mask;
    uint64_t d[DBP_BLOCK];
    for (int64_t b0 = 0; b0 < nd; b0 += DBP_BLOCK) {
        int64_t min = INT64_MAX;
        for (int j = 0; j < DBP_BLOCK; j++) {
            int64_t i = b0 + j;
            d[j] = i < nd ? (DBP_VALUE(i + 1) - DBP_VALUE(i)) & mask : last;
            int64_t s = bits == 32 ? (int64_t)(int32_t)d[j] : (int64_t)d[j];
            if (s < min) min = s;
        }
        uint64_t min_u = (uint64_t)min & mask;
        o += put_uvarint(out + o, zigzag(min_u, bits));
        uint8_t *widths = out + o;
        o += DBP_MINIBLOCKS;
        for (int m = 0; m < DBP_MINIBLOCKS; m++) {
            uint64_t *a = d + m * DBP_MB, any = 0;
            for (int j = 0; j < DBP_MB; j++) {
                a[j] = (a[j] - min_u) & mask;
                any |= a[j];
            }
            int w = any ? 64 - __builtin_clzll(any) : 0;
            if (b0 / DBP_MB + m >= mb_needed) w = 0;
            widths[m] = (uint8_t)w;
            if (!w) continue;
            /* 32 values of w bits: 4w bytes, whole 64-bit words first */
            uint64_t acc = 0;
            int filled = 0;
            for (int j = 0; j < DBP_MB; j++) {
                acc |= a[j] << filled;
                filled += w;
                if (filled >= 64) {
                    put_le(out + o, acc, 8);
                    o += 8;
                    filled -= 64;
                    acc = filled ? a[j] >> (w - filled) : 0;
                }
            }
            put_le(out + o, acc, (filled + 7) / 8);
            o += (filled + 7) / 8;
        }
    }
#undef DBP_VALUE
    return o;
}

/* DELTA_BINARY_PACKED decode, after delta.py has read the stream's header
 * and checked it (block_size a multiple of 128, miniblocks dividing it into
 * multiples of 32 values, at least 1 + miniblocks bytes per block left).
 * Any such layout is read, not only the 128/4 this file writes. Each needed
 * miniblock is unpacked LSB-first through a 64-bit accumulator and summed
 * into the running value as it streams; the width bytes of unneeded
 * trailing miniblocks are skipped unread, whatever they hold. The walk and
 * its checks go in the numpy decoder's order, so both fail alike. */
enum {
    DBP_TRUNCATED = -1, /* the stream ends inside a varint, width or body */
    DBP_WIDE = -2,      /* a needed miniblock's width is above 64 */
    DBP_OVERFLOW = -3,  /* a min-delta varint holds more than 64 bits */
    DBP_BAD_ARG = -4,
};

/* Zigzag varint at buf[*pos..len) into *v; 0 or a DBP_* code. A varint
 * that overflows 64 bits is read to its end first, so a truncation behind
 * it is reported as the truncation. */
static int get_svarint(const uint8_t *buf, int64_t len, int64_t *pos, uint64_t *v)
{
    uint64_t u = 0;
    int shift = 0, over = 0;
    int64_t p = *pos;
    for (;;) {
        if (p >= len) return DBP_TRUNCATED;
        uint64_t b = buf[p++];
        if (shift < 63)
            u |= (b & 0x7F) << shift;
        else if (shift == 63) {
            u |= (b & 1) << 63;
            over |= (b & 0x7E) != 0;
        } else
            over |= (b & 0x7F) != 0;
        if (!(b & 0x80)) break;
        if (shift < 64) shift += 7;
    }
    if (over) return DBP_OVERFLOW;
    *pos = p;
    *v = (u >> 1) ^ (0 - (u & 1));
    return 0;
}

/* The body of dbp_decode, inlined once per value width so that the
 * store into out is not a branch per value. */
static inline __attribute__((always_inline)) int64_t
dbp_decode_blocks(const uint8_t *buf, int64_t len, int64_t pos,
                  int64_t mb_size, int64_t miniblocks, int64_t n,
                  uint64_t first, const int bits, void *out)
{
    int32_t *o32 = (int32_t *)out;
    int64_t *o64 = (int64_t *)out;
    uint64_t cur = first;
#define DBP_STORE(i) \
    (bits == 32 ? (void)(o32[i] = (int32_t)(uint32_t)cur) : (void)(o64[i] = (int64_t)cur))
    DBP_STORE(0);
    int64_t i = 1;
    while (i < n) {
        uint64_t mn;
        int rc = get_svarint(buf, len, &pos, &mn);
        if (rc) return rc;
        if (miniblocks > len - pos) return DBP_TRUNCATED;
        const uint8_t *widths = buf + pos;
        pos += miniblocks;
        for (int64_t m = 0; m < miniblocks && i < n; m++) {
            int w = widths[m];
            if (w > 64) return DBP_WIDE;
            /* the body is mb_size * w / 8 bytes, a whole number because
             * mb_size is a multiple of 32 */
            if (w && mb_size > (len - pos) * 8 / w) return DBP_TRUNCATED;
            int64_t cnt = n - i < mb_size ? n - i : mb_size;
            if (!w) {
                for (int64_t j = 0; j < cnt; j++, i++) {
                    cur += mn;
                    DBP_STORE(i);
                }
                continue;
            }
            const uint8_t *p = buf + pos, *end = p + mb_size * w / 8;
            const uint64_t wmask = w == 64 ? ~(uint64_t)0 : ((uint64_t)1 << w) - 1;
            uint64_t acc = 0;
            int have = 0; /* bits left in acc, at most 63 */
            for (int64_t j = 0; j < cnt; j++, i++) {
                uint64_t v;
                if (have >= w) {
                    v = acc & wmask;
                    acc >>= w;
                    have -= w;
                } else {
                    /* the next word: 8 bytes, or what is left of the
                     * body, which always holds the bits still owed */
                    uint64_t word = 0;
                    int nb = end - p >= 8 ? 8 : (int)(end - p);
                    if (nb == 8)
                        word = load_le64(p);
                    else
                        for (int k = 0; k < nb; k++) word |= (uint64_t)p[k] << (8 * k);
                    p += nb;
                    v = (acc | word << have) & wmask;
                    int used = w - have;
                    acc = used == 64 ? 0 : word >> used;
                    have = nb * 8 - used;
                }
                cur += v + mn;
                DBP_STORE(i);
            }
            pos += mb_size * w / 8;
        }
    }
#undef DBP_STORE
    return pos;
}

/* Decodes the n values (n >= 2) whose blocks start at buf[pos] into out
 * (int32 when bits is 32, int64 when 64), the first being `first`.
 * Returns the position after the last block, or a DBP_* code. Reads no
 * byte at or past buf[len]. */
int64_t dbp_decode(const uint8_t *buf, int64_t len, int64_t pos,
                   int64_t block_size, int64_t miniblocks, int64_t n,
                   uint64_t first, int32_t bits, void *out)
{
    if (n < 2 || (bits != 32 && bits != 64) || miniblocks <= 0
        || block_size <= 0 || block_size % miniblocks
        || (block_size / miniblocks) % 32 || pos < 0 || pos > len)
        return DBP_BAD_ARG;
    int64_t mb_size = block_size / miniblocks;
    if (bits == 32)
        return dbp_decode_blocks(buf, len, pos, mb_size, miniblocks, n, first, 32, out);
    return dbp_decode_blocks(buf, len, pos, mb_size, miniblocks, n, first, 64, out);
}
