//! Chunked vs whole-capture equivalence over the torture corpus.
//!
//! The whole-capture entry points (`Receiver::receive`,
//! `Receiver::receive_blind`, `Detector::try_detect`) are the streaming
//! state machines fed one chunk. The contract is *bit-identity*: for
//! any capture they accept (or reject with a typed error), feeding the
//! same samples in chunks of ANY size must produce the exact same
//! report — same bits, same floating-point intermediates, same typed
//! error. This suite pins that contract over every torture-corpus
//! capture at chunk sizes 1, 7, 64 KiB and whole-capture, for the
//! informed receiver, the blind receiver and the keystroke detector.

use emsc_core::chain::{Chain, Setup};
use emsc_core::fused::ChainStream;
use emsc_core::laptop::Laptop;
use emsc_covert::rx::{Receiver, RxConfig, RxError, RxReport};
use emsc_covert::stream::StreamingReceiver;
use emsc_keylog::detect::{DetectError, DetectionReport, Detector, DetectorConfig};
use emsc_keylog::stream::StreamingDetector;
use emsc_pmu::trace::PowerTrace;
use emsc_pmu::workload::Program;
use emsc_runtime::with_threads;
use emsc_sdr::iq::Complex;
use emsc_sdr::{Capture, Frontend};
use emsc_tests::{corpus, noise, FS, F_SW};
use emsc_vrm::buck::Buck;

/// Chunk sizes every capture is replayed at (`usize::MAX` = whole).
const CHUNKINGS: [usize; 4] = [1, 7, 64 * 1024, usize::MAX];

fn rx_config() -> RxConfig {
    RxConfig::new(F_SW, 250e-6)
}

fn stream_receive(cap: &Capture, chunk: usize, blind: bool) -> Result<RxReport, RxError> {
    let mut rx = if blind {
        StreamingReceiver::new_blind(rx_config(), cap.sample_rate, cap.center_freq)?
    } else {
        StreamingReceiver::new(rx_config(), cap.sample_rate, cap.center_freq)?
    };
    for c in cap.samples.chunks(chunk.max(1)) {
        rx.push(c);
    }
    rx.finish()
}

fn stream_detect(cap: &Capture, chunk: usize) -> Result<DetectionReport, DetectError> {
    let mut det =
        StreamingDetector::new(DetectorConfig::new(F_SW), cap.sample_rate, cap.center_freq)?;
    for c in cap.samples.chunks(chunk.max(1)) {
        det.push(c);
    }
    det.finish()
}

#[test]
fn informed_receiver_is_bit_identical_to_batch_on_the_corpus() {
    let batch_rx = Receiver::new(rx_config());
    for (label, cap) in corpus() {
        let batch = batch_rx.receive(&cap);
        for chunk in CHUNKINGS {
            let streamed = stream_receive(&cap, chunk, false);
            assert_eq!(streamed, batch, "{label} diverged at chunk size {chunk}");
        }
    }
}

#[test]
fn blind_receiver_is_bit_identical_to_batch_on_the_corpus() {
    let batch_rx = Receiver::new(rx_config());
    for (label, cap) in corpus() {
        let batch = batch_rx.receive_blind(&cap);
        for chunk in CHUNKINGS {
            let streamed = stream_receive(&cap, chunk, true);
            assert_eq!(streamed, batch, "{label} (blind) diverged at chunk size {chunk}");
        }
    }
}

#[test]
fn keylog_detector_is_bit_identical_to_batch_on_the_corpus() {
    let batch_det = Detector::new(DetectorConfig::new(F_SW));
    for (label, cap) in corpus() {
        let batch = batch_det.try_detect(&cap);
        for chunk in CHUNKINGS {
            let streamed = stream_detect(&cap, chunk);
            assert_eq!(streamed, batch, "{label} (keylog) diverged at chunk size {chunk}");
        }
    }
}

#[test]
fn degenerate_sample_rates_error_identically() {
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let cap = Capture { samples: noise(10_000, 3), sample_rate: rate, center_freq: F_SW };
        let batch = Receiver::new(rx_config()).receive(&cap);
        let streamed = StreamingReceiver::new(rx_config(), cap.sample_rate, cap.center_freq)
            .and_then(|mut rx| {
                rx.push(&cap.samples);
                rx.finish()
            });
        assert_eq!(streamed, batch, "sample rate {rate}");
        assert!(
            StreamingDetector::new(DetectorConfig::new(F_SW), rate, F_SW).is_err(),
            "keylog sample rate {rate} must be rejected at construction"
        );
    }
    // Off-band tuning is NoCarrier in both paths (at construction for
    // the streaming receiver, at receive for batch).
    let off = Capture { samples: noise(10_000, 3), sample_rate: FS, center_freq: 1e9 };
    assert_eq!(Receiver::new(rx_config()).receive(&off), Err(RxError::NoCarrier));
    assert!(matches!(
        StreamingReceiver::new(rx_config(), off.sample_rate, off.center_freq),
        Err(RxError::NoCarrier)
    ));
}

#[test]
fn streaming_survives_single_sample_pushes_interleaved_with_bulk() {
    // Mixed chunk sizes within ONE stream: state carry-over must not
    // depend on a uniform chunking.
    for (label, cap) in corpus() {
        let batch = Receiver::new(rx_config()).receive(&cap);
        let streamed = StreamingReceiver::new(rx_config(), cap.sample_rate, cap.center_freq)
            .and_then(|mut rx| {
                let mut i = 0usize;
                let mut step = 1usize;
                while i < cap.samples.len() {
                    let end = (i + step).min(cap.samples.len());
                    rx.push(&cap.samples[i..end]);
                    i = end;
                    step = (step * 3 + 1) % 4096 + 1;
                }
                rx.finish()
            });
        assert_eq!(streamed, batch, "{label} diverged under mixed chunking");
    }
}

/// The whole-buffer TX composition: blinking → buck → full analog
/// render → one digitise sweep. The oracle the fused producer is
/// pinned against.
fn staged_capture(chain: &Chain, trace: &PowerTrace, seed: u64) -> Vec<Complex> {
    let trace = match chain.blinking {
        Some(b) => trace.clone().with_blinking(b.period_s, b.duty, b.level_a),
        None => trace.clone(),
    };
    let train = Buck::new(chain.vrm.clone()).convert(&trace);
    let analog = chain.scene.render(&train, seed);
    Frontend::new(chain.frontend.clone()).digitize(&analog).samples
}

#[test]
fn fused_tx_chain_is_bit_identical_to_staged_at_any_block_size_and_thread_count() {
    // The TX-side mirror of the receiver contract above: the fused
    // producer (synth→AWGN→digitise per cache-resident block) must
    // reproduce the whole-buffer composition bit for bit at every
    // block size and worker count. A short trace keeps the
    // deliberately pathological 1-sample blocking affordable in debug
    // builds.
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::ThroughWall);
    let program = Program::alternating(200e-6, 200e-6, 4, chain.machine.steady_state_ips());
    let trace = chain.machine.run(&program, 41);
    let staged = with_threads(1, || staged_capture(&chain, &trace, 41));
    for threads in [1usize, 3] {
        // The oracle must itself be thread-count independent…
        let staged_t = with_threads(threads, || staged_capture(&chain, &trace, 41));
        assert_eq!(staged_t, staged, "staged at {threads} threads");
        // …and the fused producer must match it at every blocking.
        for block in [1usize, 7, 4096, usize::MAX] {
            let fused = with_threads(threads, || {
                let mut stream = ChainStream::with_block_samples(&chain, trace.clone(), 41, block);
                let mut samples = Vec::with_capacity(stream.total_samples());
                while let Some(b) = stream.next_block() {
                    samples.extend_from_slice(b);
                }
                samples
            });
            assert_eq!(fused.len(), staged.len());
            for (i, (a, b)) in fused.iter().zip(&staged).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "block {block}, {threads} threads: sample {i} differs"
                );
            }
        }
    }
}

#[test]
fn marker_deframer_is_chunk_oblivious_on_an_impaired_capture() {
    // End-to-end marker-coding mirror of the bit-identity contract: a
    // marker-coded frame is sent over the real chain, the capture is
    // corrupted with the severity-3 impairment stack (clock drift,
    // AGC step, dropped samples, burst, clipping), and then BOTH
    // streaming layers must be chunk-oblivious — the sample-level
    // receiver must reproduce the batch demodulated bits, and the
    // bit-level deframer fed those bits must reproduce the batch
    // anchor-chain decode.
    use emsc_core::covert_run::CovertScenario;
    use emsc_covert::frame::try_deframe;
    use emsc_covert::marker::MarkerConfig;
    use emsc_covert::stream::{Deframer, FrameEvent};
    use emsc_sdr::impair::severity_stack;

    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::NearField);
    let mut scenario = CovertScenario::for_laptop(&laptop, chain);
    scenario.tx.frame.marker = Some(MarkerConfig::standard());
    let payload = b"sync-robust marker coding";
    let outcome = scenario.run_impaired(payload, 23, &severity_stack(3), 7);
    let cap = &outcome.chain_run.capture;

    // Sample level: the streaming receiver on the impaired capture.
    for chunk in CHUNKINGS {
        let streamed =
            StreamingReceiver::new(scenario.rx.clone(), cap.sample_rate, cap.center_freq)
                .and_then(|mut rx| {
                    for c in cap.samples.chunks(chunk.max(1).min(cap.samples.len())) {
                        rx.push(c);
                    }
                    rx.finish()
                })
                .expect("impaired capture still demodulates");
        assert_eq!(streamed, outcome.report, "receiver diverged at chunk size {chunk}");
    }

    // Bit level: the streaming deframer against the batch anchor scan.
    let batch = try_deframe(&outcome.report.bits, scenario.tx.frame, 1)
        .expect("severity 3 is within the marker code's budget");
    assert_eq!(&batch.payload, payload, "batch decode must survive severity 3");
    for chunk in [1usize, 7, 64, usize::MAX] {
        let mut d = Deframer::new(scenario.tx.frame, 1);
        let mut events = Vec::new();
        for c in outcome.report.bits.chunks(chunk.min(outcome.report.bits.len())) {
            events.extend(d.push(c));
        }
        events.extend(d.finish());
        let frames: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                FrameEvent::Frame(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(frames.len(), 1, "bit chunk {chunk}: {events:?}");
        assert_eq!(*frames[0], batch, "deframer diverged at bit chunk size {chunk}");
    }
}

#[test]
fn empty_pushes_are_no_ops() {
    let (label, cap) = corpus().into_iter().find(|(l, _)| *l == "truncated-mid-frame").unwrap();
    let batch = Receiver::new(rx_config()).receive(&cap);
    let streamed =
        StreamingReceiver::new(rx_config(), cap.sample_rate, cap.center_freq).and_then(|mut rx| {
            rx.push(&[]);
            for c in cap.samples.chunks(777) {
                rx.push(c);
                rx.push(&[]);
            }
            rx.finish()
        });
    assert_eq!(streamed, batch, "{label} diverged with empty pushes");
}
