//! Failure-mode and lifecycle tests for the `sring-served` daemon: happy
//! path with cross-request cache sharing, queue-full rejection, deadline
//! enforcement (on a sleep and inside a MILP synthesis), malformed
//! frames, client disconnect mid-job and the drain-on-shutdown guarantee.

use sring::served::proto::{
    DeltaSpec, JobSpec, Outcome, RejectReason, Response, StrategySpec, Workload, FRAME_MAGIC,
    HEADER_LEN, PROTO_VERSION,
};
use sring::served::{Client, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn server_with(config: ServerConfig) -> Server {
    Server::start("127.0.0.1:0", config).expect("server starts on loopback")
}

fn client_of(server: &Server) -> Client {
    Client::connect(server.addr()).expect("connects")
}

fn mwd_job() -> JobSpec {
    JobSpec::new(Workload::Benchmark("MWD".into()))
}

fn submitted(client: &mut Client, spec: JobSpec) -> Response {
    client.submit(spec).expect("transport healthy")
}

#[test]
fn second_identical_job_is_served_from_the_shared_cache() {
    let mut server = server_with(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = client_of(&server);
    client.ping().expect("pong");

    let Response::Job(first) = submitted(&mut client, mwd_job()) else {
        panic!("first job not answered with a result");
    };
    let Outcome::Completed(summary) = &first.outcome else {
        panic!("first job failed: {:?}", first.outcome);
    };
    assert_eq!(summary.workload, "MWD");
    assert!(summary.wavelengths > 0);
    assert!(summary.sub_rings > 0);
    assert_eq!(first.cache_hits, 0, "cold cache cannot hit");
    assert!(first.cache_misses > 0);

    // Same benchmark, same strategy → every cacheable stage hits the
    // cache warmed by the first request (cross-connection sharing).
    let mut second_client = client_of(&server);
    let Response::Job(second) = submitted(&mut second_client, mwd_job()) else {
        panic!("second job not answered with a result");
    };
    assert!(
        matches!(second.outcome, Outcome::Completed(_)),
        "{:?}",
        second.outcome
    );
    assert!(
        second.cache_hits >= 4,
        "expected all four cacheable stages to hit, got {}",
        second.cache_hits
    );
    assert_eq!(second.cache_misses, 0);

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.protocol_errors, 0);
    assert!(stats.cache_hits >= 4);
}

#[test]
fn a_delta_job_edits_a_saved_result_and_reuses_the_shared_cache() {
    let mut server = server_with(ServerConfig::default());
    let mut client = client_of(&server);

    // Synthesize MWD and save it server-side under a name.
    let mut base = mwd_job();
    base.save_as = Some("mwd-base".into());
    let Response::Job(first) = submitted(&mut client, base) else {
        panic!("base job not answered");
    };
    let Outcome::Completed(base_summary) = &first.outcome else {
        panic!("base job failed: {:?}", first.outcome);
    };

    // A pure bandwidth scale keeps the topology, so every stage of the
    // re-synthesis must be served from the cache warmed by the base job.
    let mut edit = JobSpec::new(Workload::Delta {
        base: "mwd-base".into(),
        deltas: vec![DeltaSpec::Scale { id: 0, factor: 2.0 }],
    });
    edit.save_as = Some("mwd-edited".into());
    let Response::Job(second) = submitted(&mut client, edit) else {
        panic!("delta job not answered");
    };
    let Outcome::Completed(summary) = &second.outcome else {
        panic!("delta job failed: {:?}", second.outcome);
    };
    assert_eq!(summary.messages, base_summary.messages);
    assert_eq!(summary.sub_rings, base_summary.sub_rings);
    assert_eq!(summary.wavelengths, base_summary.wavelengths);
    assert!(
        second.cache_hits >= 4,
        "a bandwidth-only edit must reuse all four stages, got {} hits",
        second.cache_hits
    );

    // Delta jobs chain: a structural edit against the edited result works
    // too, and an unknown base fails cleanly without killing the server.
    let retarget = JobSpec::new(Workload::Delta {
        base: "mwd-edited".into(),
        deltas: vec![DeltaSpec::Retarget {
            id: 0,
            src: 0,
            dst: 3,
        }],
    });
    let Response::Job(third) = submitted(&mut client, retarget) else {
        panic!("chained delta job not answered");
    };
    assert!(
        matches!(third.outcome, Outcome::Completed(_)),
        "{:?}",
        third.outcome
    );

    let unknown = JobSpec::new(Workload::Delta {
        base: "no-such-result".into(),
        deltas: vec![DeltaSpec::Remove { id: 0 }],
    });
    let Response::Job(missing) = submitted(&mut client, unknown) else {
        panic!("unknown-base job not answered");
    };
    assert!(
        matches!(&missing.outcome, Outcome::Failed(m) if m.contains("unknown base")),
        "{:?}",
        missing.outcome
    );

    let stats = server.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 1);
}

#[test]
fn trace_collection_returns_a_parseable_report() {
    let mut server = server_with(ServerConfig::default());
    let mut client = client_of(&server);
    let mut spec = mwd_job();
    spec.collect_trace = true;
    spec.strategy = StrategySpec::Heuristic;
    let Response::Job(result) = submitted(&mut client, spec) else {
        panic!("job not answered");
    };
    let trace = result.trace_json.expect("trace requested");
    let report = sring::trace::TraceReport::from_json(&trace).expect("valid trace JSON");
    assert_eq!(report.counter("cache/misses"), Some(4));
    server.shutdown();
}

#[test]
fn queue_overflow_is_rejected_explicitly() {
    // One worker, queue depth 1: with one job running and one queued,
    // every further concurrent submission must be REJECTED, not buffered.
    let server = server_with(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let outcomes: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connects");
                    client
                        .submit(JobSpec::new(Workload::Sleep { millis: 400 }))
                        .expect("transport healthy")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    let rejected = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Rejected(RejectReason::QueueFull { depth: 1 })))
        .count();
    let completed = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Job(j) if matches!(j.outcome, Outcome::Completed(_))))
        .count();
    assert!(
        rejected >= 2,
        "4 submissions against 1 worker + depth-1 queue must reject ≥2, got {rejected} ({outcomes:?})"
    );
    assert_eq!(completed + rejected, 4, "{outcomes:?}");
    let stats = server.stats();
    assert_eq!(stats.rejected_queue_full, rejected as u64);
}

#[test]
fn a_job_missing_its_deadline_reports_deadline_exceeded() {
    let mut server = server_with(ServerConfig::default());
    let mut client = client_of(&server);
    let mut spec = JobSpec::new(Workload::Sleep { millis: 500 });
    spec.deadline = Some(Duration::from_millis(50));
    let started = Instant::now();
    let Response::Job(result) = submitted(&mut client, spec) else {
        panic!("job not answered");
    };
    assert!(
        matches!(result.outcome, Outcome::DeadlineExceeded { .. }),
        "{:?}",
        result.outcome
    );
    assert!(
        started.elapsed() < Duration::from_millis(450),
        "the job ran to completion instead of aborting at the deadline"
    );
    let stats = server.shutdown();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.completed, 0);
}

/// How far past its deadline a daemon job may be answered: the margin
/// `tests/deadline.rs` allows an in-process synthesis.
const DEADLINE_MARGIN: Duration = Duration::from_millis(250);

#[test]
fn a_milp_job_past_its_deadline_is_aborted_within_the_margin() {
    // MPEG's MILP model build alone outlasts both deadlines, so each one
    // lapses inside the synthesis on a worker, not in the queue or in a
    // sleep: the abort must come from the pipeline's own deadline polls.
    let mut server = server_with(ServerConfig::default());
    let mut client = client_of(&server);
    for millis in [25, 100] {
        let deadline = Duration::from_millis(millis);
        let mut spec = JobSpec::new(Workload::Benchmark("MPEG".into()));
        spec.strategy = StrategySpec::Milp;
        spec.deadline = Some(deadline);
        let started = Instant::now();
        let Response::Job(result) = submitted(&mut client, spec) else {
            panic!("MPEG job under {deadline:?} not answered");
        };
        let elapsed = started.elapsed();
        let Outcome::DeadlineExceeded { overdue_ns } = result.outcome else {
            panic!("MPEG under {deadline:?}: {:?}", result.outcome);
        };
        assert!(
            Duration::from_nanos(overdue_ns) < DEADLINE_MARGIN,
            "MPEG under {deadline:?} was detected {overdue_ns} ns overdue"
        );
        assert!(
            elapsed <= deadline + DEADLINE_MARGIN,
            "MPEG under {deadline:?} was answered after {elapsed:?}"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.deadline_exceeded, 2);
    assert_eq!(stats.completed, 0);
}

#[test]
fn a_deadline_that_lapses_in_the_queue_never_starts_the_job() {
    // One worker pinned by a long job; the second job's 50 ms deadline
    // expires while it waits, so it must come back DeadlineExceeded
    // without its 400 ms sleep ever running.
    let mut server = server_with(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let pin = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connects");
        client
            .submit(JobSpec::new(Workload::Sleep { millis: 300 }))
            .expect("transport healthy")
    });
    std::thread::sleep(Duration::from_millis(50)); // let the pin job start
    let mut client = client_of(&server);
    let mut spec = JobSpec::new(Workload::Sleep { millis: 400 });
    spec.deadline = Some(Duration::from_millis(50));
    let Response::Job(result) = submitted(&mut client, spec) else {
        panic!("queued job not answered");
    };
    assert!(
        matches!(result.outcome, Outcome::DeadlineExceeded { .. }),
        "{:?}",
        result.outcome
    );
    assert!(
        result.run_ns < 100_000_000,
        "an already-expired job must not run its payload ({} ns)",
        result.run_ns
    );
    assert!(matches!(pin.join().expect("no panic"), Response::Job(_)));
    server.shutdown();
}

#[test]
fn an_oversized_frame_is_answered_with_an_error_and_the_connection_closed() {
    let mut server = server_with(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    // A syntactically valid header whose advertised payload exceeds the
    // server's limit: must be refused before any allocation.
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&FRAME_MAGIC);
    header.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&header).expect("writes");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("reads until close");
    let body = &buf[HEADER_LEN..]; // skip the response frame header
    let response = <Response as sring::store::Persist>::from_store_bytes(body).expect("decodes");
    assert!(
        matches!(&response, Response::Error(m) if m.contains("exceeds")),
        "{response:?}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn garbage_magic_is_rejected_and_the_server_stays_up() {
    let mut server = server_with(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    // Exactly one header's worth of garbage: the server consumes all of
    // it before closing, so the close is a clean FIN rather than an RST
    // racing our read of the error response.
    stream.write_all(b"GET / HTTP/1").expect("writes");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("reads until close");
    assert!(!buf.is_empty(), "expected an error response before close");
    // The violation is confined to that connection.
    let mut client = client_of(&server);
    client.ping().expect("server still serving");
    let stats = server.shutdown();
    assert!(stats.protocol_errors >= 1);
}

#[test]
fn a_truncated_frame_is_counted_and_confined_to_its_connection() {
    let mut server = server_with(ServerConfig::default());
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connects");
        // A valid header promising 100 bytes, then only 10, then EOF.
        let mut partial = Vec::new();
        partial.extend_from_slice(&FRAME_MAGIC);
        partial.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        partial.extend_from_slice(&100u32.to_le_bytes());
        partial.extend_from_slice(&[0u8; 10]);
        stream.write_all(&partial).expect("writes");
    } // dropped: EOF mid-frame on the server side
      // Poll until the server has accounted the violation.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if server.stats().protocol_errors >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "truncated frame never counted");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut client = client_of(&server);
    client.ping().expect("server still serving");
    server.shutdown();
}

#[test]
fn a_client_disconnecting_mid_job_does_not_kill_the_job_or_the_server() {
    let mut server = server_with(ServerConfig::default());
    {
        // Fire a job and hang up before the result comes back: one raw
        // frame out, no read, drop the socket.
        use sring::store::Persist;
        let mut stream = TcpStream::connect(server.addr()).expect("connects");
        let request =
            sring::served::proto::Request::Job(JobSpec::new(Workload::Sleep { millis: 200 }));
        let payload = request.to_store_bytes();
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        frame.extend_from_slice(&(u32::try_from(payload.len()).expect("fits")).to_le_bytes());
        frame.extend_from_slice(&payload);
        stream.write_all(&frame).expect("writes");
    } // socket dropped mid-job
      // The job still runs to completion and the server stays healthy.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.completed == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned job never completed: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut client = client_of(&server);
    client.ping().expect("server still serving");
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn shutdown_drains_in_flight_jobs_and_rejects_new_ones() {
    let server = server_with(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    // An in-flight job straddling the shutdown request...
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connects");
        client
            .submit(JobSpec::new(Workload::Sleep { millis: 300 }))
            .expect("transport healthy")
    });
    std::thread::sleep(Duration::from_millis(80)); // let it start running
    let mut control = Client::connect(addr).expect("connects");
    control.shutdown().expect("acknowledged");
    // ...must still complete and reach its client,
    let result = in_flight.join().expect("no panic");
    assert!(
        matches!(&result, Response::Job(j) if matches!(j.outcome, Outcome::Completed(_))),
        "{result:?}"
    );
    // ...while a submission after the flag flips is rejected.
    let late = control.submit(JobSpec::new(Workload::Sleep { millis: 1 }));
    match late {
        Ok(Response::Rejected(RejectReason::ShuttingDown)) => {}
        Ok(other) => panic!("late job not rejected: {other:?}"),
        // The drain may already have closed the listener side; a broken
        // connection is an acceptable way to learn the server is gone.
        Err(_) => {}
    }
    let stats = server.wait();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}
