/* Delta-encoding hot loops: front-coding (DELTA_BYTE_ARRAY) decode and
 * DELTA_BINARY_PACKED encode. delta.py's numpy code is the reference and
 * the fallback for both.
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
