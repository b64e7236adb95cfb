//! Striping math: map a contiguous byte range of a file onto the
//! per-server extents of a round-robin striped layout.

/// One contiguous piece of a request on one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Server index the stripe lives on.
    pub server: usize,
    /// Offset within the *file* where this extent starts.
    pub file_offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Call `f` with each stripe-unit piece of `[offset, offset+len)`, in
/// file order.
fn for_each_piece(
    offset: u64,
    len: u64,
    stripe_unit: u64,
    servers: usize,
    mut f: impl FnMut(Extent),
) {
    assert!(stripe_unit > 0 && servers > 0);
    let (mut pos, end) = (offset, offset + len);
    while pos < end {
        let stripe = pos / stripe_unit;
        let piece = ((stripe + 1) * stripe_unit).min(end) - pos;
        f(Extent { server: (stripe % servers as u64) as usize, file_offset: pos, len: piece });
        pos += piece;
    }
}

/// Split `[offset, offset+len)` into stripe-unit extents, round-robin
/// over `servers`. Extents are emitted in file order; consecutive
/// stripes on the *same* server (possible when `servers == 1`) are
/// merged.
pub fn split(offset: u64, len: u64, stripe_unit: u64, servers: usize) -> Vec<Extent> {
    let mut out: Vec<Extent> = Vec::new();
    for_each_piece(offset, len, stripe_unit, servers, |e| match out.last_mut() {
        Some(last) if last.server == e.server && last.file_offset + last.len == e.file_offset => {
            last.len += e.len;
        }
        _ => out.push(e),
    });
    out
}

/// Add what each server moves for the range to `bytes` and lower
/// `starts` to the first file offset it is asked for (one slot per
/// server): the scatter-gather request each involved server sees for
/// one contiguous client call.
pub(crate) fn sum_per_server(
    offset: u64,
    len: u64,
    stripe_unit: u64,
    bytes: &mut [u64],
    starts: &mut [u64],
) {
    for_each_piece(offset, len, stripe_unit, bytes.len(), |e| {
        bytes[e.server] += e.len;
        starts[e.server] = starts[e.server].min(e.file_offset);
    });
}

/// Total bytes each server moves for the range (index = server id).
pub fn per_server_bytes(offset: u64, len: u64, stripe_unit: u64, servers: usize) -> Vec<u64> {
    let mut bytes = vec![0u64; servers];
    sum_per_server(offset, len, stripe_unit, &mut bytes, &mut vec![u64::MAX; servers]);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stripe_single_extent() {
        let e = split(0, 100, 1024, 4);
        assert_eq!(e, vec![Extent { server: 0, file_offset: 0, len: 100 }]);
    }

    #[test]
    fn crosses_stripe_boundary() {
        let e = split(1000, 100, 1024, 4);
        assert_eq!(
            e,
            vec![
                Extent { server: 0, file_offset: 1000, len: 24 },
                Extent { server: 1, file_offset: 1024, len: 76 },
            ]
        );
    }

    #[test]
    fn round_robin_wraps() {
        let e = split(0, 4096, 1024, 2);
        let servers: Vec<usize> = e.iter().map(|x| x.server).collect();
        assert_eq!(servers, vec![0, 1, 0, 1]);
    }

    #[test]
    fn one_server_merges_contiguous() {
        let e = split(0, 10 * 1024, 1024, 1);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].len, 10 * 1024);
    }

    #[test]
    fn coverage_is_exact_and_ordered() {
        let (off, len, su, s) = (777u64, 123_456u64, 4096u64, 5usize);
        let ex = split(off, len, su, s);
        let mut pos = off;
        for e in &ex {
            assert_eq!(e.file_offset, pos, "gap or overlap at {pos}");
            pos += e.len;
        }
        assert_eq!(pos, off + len);
    }

    #[test]
    fn per_server_bytes_sums_to_len() {
        let b = per_server_bytes(100, 1_000_000, 65536, 7);
        assert_eq!(b.iter().sum::<u64>(), 1_000_000);
        // balanced to within one stripe unit
        let max = *b.iter().max().unwrap();
        let min = *b.iter().min().unwrap();
        assert!(max - min <= 2 * 65536, "{b:?}");
    }

    #[test]
    fn zero_len_is_empty() {
        assert!(split(50, 0, 1024, 3).is_empty());
    }
}
