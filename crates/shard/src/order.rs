//! Canonical (ascending id) order: the one place the crate sorts and
//! merges id vectors.

/// Inputs shorter than this take `sort_unstable`: below it the radix
/// passes' bucket tables cost more than the comparisons they save.
const RADIX_MIN_LEN: usize = 64;

/// Widest digit of one radix pass: a 2 048-entry bucket table stays in L1.
const MAX_DIGIT_BITS: u32 = 11;

/// Sorts `ids` ascending. An LSD radix sort over the bits in which the ids
/// differ (`max − min`), split into equal digits of at most
/// [`MAX_DIGIT_BITS`] bits: one pass per digit, stable scatters through
/// one scratch vector. A million ids spanning 20 bits take two passes of
/// 10; `0` beside `u64::MAX` takes six of 11. Short inputs take
/// `sort_unstable`.
pub(crate) fn sort_ids(ids: &mut [u64]) {
    if ids.len() < RADIX_MIN_LEN {
        ids.sort_unstable();
        return;
    }
    let (lo, hi) = ids
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &id| (lo.min(id), hi.max(id)));
    let bits = u64::BITS - (hi - lo).leading_zeros();
    if bits == 0 {
        return;
    }
    let passes = bits.div_ceil(MAX_DIGIT_BITS);
    let width = bits.div_ceil(passes);
    let buckets = 1usize << width;
    let digit = |id: u64, pass: u32| ((id - lo) >> (pass * width)) as usize & (buckets - 1);

    // Every pass's histogram from one read of the input.
    let mut counts = vec![0usize; passes as usize * buckets];
    for &id in ids.iter() {
        for pass in 0..passes {
            counts[pass as usize * buckets + digit(id, pass)] += 1;
        }
    }

    let mut scratch = vec![0u64; ids.len()];
    let (mut src, mut dst) = (ids, scratch.as_mut_slice());
    for (pass, offsets) in (0..passes).zip(counts.chunks_exact_mut(buckets)) {
        let mut next = 0;
        for c in offsets.iter_mut() {
            let count = *c;
            *c = next;
            next += count;
        }
        for &id in src.iter() {
            let slot = &mut offsets[digit(id, pass)];
            dst[*slot] = id;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    // After an odd number of passes the sorted run sits in the scratch
    // vector (`src`) and `dst` is the caller's slice.
    if passes % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

/// Merges two ascending runs into one.
pub(crate) fn merge_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic ids (splitmix64), `bits` wide above `base`.
    fn ids(n: usize, bits: u32, base: u64, seed: u64) -> Vec<u64> {
        let mask = u64::MAX.checked_shr(64 - bits).unwrap_or(0);
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                base + ((z ^ (z >> 31)) & mask)
            })
            .collect()
    }

    fn assert_sorts(mut v: Vec<u64>, what: &str) {
        let mut expect = v.clone();
        expect.sort_unstable();
        sort_ids(&mut v);
        assert_eq!(v, expect, "{what}, {} ids", v.len());
    }

    #[test]
    fn sort_ids_equals_sort_unstable_on_the_edges() {
        for n in [0, 1, 2, 3, 63, 64, 65, 127, 128, 1_000, 3_000] {
            for (bits, base) in [
                (0, 7),
                (1, 0),
                (3, 40),
                (11, 0),
                (12, 5),
                (20, 1 << 40),
                (64, 0),
            ] {
                let v = ids(n, bits, base, n as u64 ^ u64::from(bits));
                assert_sorts(v.clone(), &format!("{bits} bits over {base}"));
                let mut sorted = v;
                sorted.sort_unstable();
                assert_sorts(sorted.clone(), "already sorted");
                sorted.reverse();
                assert_sorts(sorted, "reversed");
            }
            assert_sorts(vec![42; n], "all ids equal");
            // `0` beside `u64::MAX`: a 64-bit span, six passes.
            let mut v = ids(n, 64, 0, 9);
            if n >= 2 {
                v[0] = u64::MAX;
                v[n / 2] = 0;
            }
            assert_sorts(v, "0 and u64::MAX");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn sort_ids_equals_sort_unstable(
            raw in prop::collection::vec(0u64..=u64::MAX, 0..=3_000),
            bits in 0u32..=64,
            base in 0u64..=u64::MAX,
            shape in 0u8..3,
        ) {
            // Ids `bits` wide under a random high part: narrow spans repeat
            // ids, `bits = 0` makes them all equal.
            let mask = u64::MAX.checked_shr(64 - bits).unwrap_or(0);
            let mut v: Vec<u64> = raw.iter().map(|&r| (base & !mask) | (r & mask)).collect();
            match shape {
                1 => v.sort_unstable(),
                2 => v.sort_unstable_by(|a, b| b.cmp(a)),
                _ => {}
            }
            let mut expect = v.clone();
            expect.sort_unstable();
            sort_ids(&mut v);
            prop_assert_eq!(v, expect);
        }
    }
}
