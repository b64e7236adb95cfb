//! A warm `run` hit asks the allocator for its reply and little else:
//! the machine name (the one string read out of the request, which
//! builds no tree), its key (written straight from the fields), its
//! 16-digit digest and the batch of one. Held here by counting what
//! `Server::handle_frame` requests for a hit. One test per binary: the
//! count is process-wide.

use beff_check::CountingAlloc;
use beff_serve::{JobSpec, Server};
use beff_sim::Workers;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes a hit may request beyond its reply.
const OVERHEAD: u64 = 232;

#[test]
fn a_warm_hit_requests_little_beyond_its_reply() {
    let server = Server::new(Workers::new(1));
    // the spec's whole wire form, every field named
    let payload =
        format!(r#"{{"op":"run","spec":{}}}"#, beff_json::to_string(&JobSpec::new("sx4", 4)));
    let payload = payload.as_str();
    let (miss, _) = server.handle_frame(payload);
    assert!(miss.starts_with("{\"cached\":false,"), "{miss}");
    let (hit, _) = server.handle_frame(payload);
    assert!(hit.starts_with("{\"cached\":true,"), "{hit}");
    // Each bracket is one hit; the least of them leaves out whatever
    // the test harness's own thread happened to allocate meanwhile.
    let requested = (0..16)
        .map(|_| {
            let before = CountingAlloc::requested();
            let (reply, _) = server.handle_frame(payload);
            let requested = CountingAlloc::requested() - before;
            assert_eq!(reply, hit, "a hit answers the same bytes every time");
            requested
        })
        .min()
        .unwrap_or(u64::MAX);
    let reply = hit.len() as u64;
    // A hit takes 222 B beyond its reply: the 3-byte machine name, the
    // 131-byte key buffer, the 16-byte digest and the batch of one's
    // 72-byte outcome vector (its admission vector, reused in place).
    assert!(
        requested <= reply + OVERHEAD,
        "a warm hit requested {requested} B for a {reply} B reply (+{} B, at most +{OVERHEAD})",
        requested.saturating_sub(reply)
    );
}
