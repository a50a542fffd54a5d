//! Post-load micro-timings of the codec layers, run on payloads sampled
//! from the traced load: the wire codec, the frame format, and the
//! erasure codec. Each loop repeats over its samples until it has run
//! for at least [`MIN_LOOP`], and reports nanoseconds per item.

use shmem_algorithms::value::{Value, ValueSpec};
use shmem_erasure::{Codec, Gf256};
use shmem_net::frame::{encode_frame, read_frame};
use shmem_net::{Envelope, WireMsg};
use std::hint::black_box;
use std::time::{Duration, Instant};

const MIN_LOOP: Duration = Duration::from_millis(40);

/// Nanoseconds per item of `pass`, which handles `items` items per call.
fn ns_per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    pass(); // warm caches and lazy set-up
    let start = Instant::now();
    let mut passes = 0u64;
    while start.elapsed() < MIN_LOOP {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes * items as u64) as f64
}

/// `(encode, decode)` nanoseconds per message of the wire codec of `M`.
pub fn wire<M: WireMsg>(samples: &[Envelope]) -> (f64, f64) {
    let msgs: Vec<M> = samples
        .iter()
        .filter_map(|e| M::from_wire(&e.payload).ok())
        .collect();
    let encode = ns_per_item(msgs.len(), || {
        for m in &msgs {
            black_box(black_box(m).to_wire());
        }
    });
    let decode = ns_per_item(samples.len(), || {
        for e in samples {
            let _ = black_box(M::from_wire(black_box(&e.payload)));
        }
    });
    (encode, decode)
}

/// `(encode, read)` nanoseconds per message of the frame format.
pub fn frame(samples: &[Envelope]) -> (f64, f64) {
    let frames: Vec<Vec<u8>> = samples.iter().map(encode_frame).collect();
    let encode = ns_per_item(samples.len(), || {
        for e in samples {
            black_box(encode_frame(black_box(e)));
        }
    });
    let read = ns_per_item(frames.len(), || {
        for f in &frames {
            let _ = black_box(read_frame(&mut black_box(f.as_slice())));
        }
    });
    (encode, read)
}

/// `(encode, decode)` nanoseconds per value of the `[n, k]` erasure
/// codec. Decoding uses the last `k` shares, so it exercises a real
/// (non-systematic) decode plan.
pub fn erasure(values: &[Value], n: usize, k: usize) -> (f64, f64) {
    let codec = Codec::<Gf256>::shared(n, k).expect("legal benchmark geometry");
    let bytes: Vec<[u8; ValueSpec::VALUE_BYTES]> =
        values.iter().map(|&v| ValueSpec::to_bytes(v)).collect();
    let shares: Vec<Vec<(usize, Vec<u8>)>> = bytes
        .iter()
        .map(|b| {
            let all = codec.encode_bytes(b);
            all.into_iter().enumerate().skip(n - k).collect()
        })
        .collect();
    let encode = ns_per_item(bytes.len(), || {
        for b in &bytes {
            black_box(codec.encode_bytes(black_box(b)));
        }
    });
    let decode = ns_per_item(shares.len(), || {
        for s in &shares {
            let _ = black_box(codec.decode_bytes(black_box(s), ValueSpec::VALUE_BYTES));
        }
    });
    (encode, decode)
}
