//! Batched reads over the wire: `RemoteStore::get_many` pipelines its
//! GETs on one kept-alive connection and gives every key the result
//! and the `store.remote.*` counters a lone `get` would, and a server
//! that goes away in the middle of a batch leaves the rest of the keys
//! to per-key gets, whose failures the pipeline absorbs: the merged
//! figures are still bit-identical to a storeless build.

use compound_threats::figures::reproduce_all;
use compound_threats::prelude::*;
use compound_threats::report::figure_csv;
use compound_threats::serve::{ServeOptions, Server};
use ct_store::remote::parse_response;
use ct_store::{Digest, StableHasher, StoreBackend};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// Unique scratch directory for one test, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("ct-remote-batch-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        Self(root)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn serve(root: &std::path::Path) -> Server {
    Server::bind(
        root,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            ..ServeOptions::default()
        },
    )
    .unwrap()
}

fn key(i: usize) -> Digest {
    let mut h = StableHasher::new();
    h.write_str("remote-batch");
    h.write_u64(i as u64);
    h.finish()
}

fn figures_csv(study: &CaseStudy) -> String {
    reproduce_all(study)
        .unwrap()
        .iter()
        .map(figure_csv)
        .collect()
}

#[test]
fn get_many_matches_per_key_gets_and_their_counters() {
    let scratch = Scratch::new("equal");
    let server = serve(&scratch.0);
    let writer = RemoteStore::connect_with_registry(
        server.addr().to_string(),
        Arc::new(ct_obs::Registry::new()),
    );
    for i in 0..100 {
        writer.put(&key(i), &vec![i as u8; i % 40]).unwrap();
    }
    // Present, missing and repeated keys, across several batches.
    let keys: Vec<Digest> = (0..170).map(|i| key((i * 37) % 130)).collect();

    let counts = |reg: &ct_obs::Registry| {
        let snap = reg.snapshot();
        [
            ct_obs::names::STORE_REMOTE_GETS,
            ct_obs::names::STORE_REMOTE_HITS,
            ct_obs::names::STORE_REMOTE_MISSES,
            ct_obs::names::STORE_REMOTE_ERRORS,
        ]
        .map(|name| snap.counter(name).unwrap_or(0))
    };
    let one_reg = Arc::new(ct_obs::Registry::new());
    let one = RemoteStore::connect_with_registry(server.addr().to_string(), Arc::clone(&one_reg));
    let sequential: Vec<_> = keys.iter().map(|k| one.get(k).unwrap()).collect();
    let many_reg = Arc::new(ct_obs::Registry::new());
    let many = RemoteStore::connect_with_registry(server.addr().to_string(), Arc::clone(&many_reg));
    let batched: Vec<_> = many
        .get_many(&keys)
        .into_iter()
        .map(Result::unwrap)
        .collect();

    assert_eq!(batched, sequential);
    let hits = sequential.iter().filter(|g| g.is_some()).count() as u64;
    assert_eq!(counts(&one_reg), [170, hits, 170 - hits, 0]);
    assert_eq!(counts(&many_reg), counts(&one_reg));
    // Three batches, each on one connection: the pipelined requests
    // rode it without dialing.
    let snap = many_reg.snapshot();
    assert_eq!(
        snap.counter(ct_obs::names::STORE_REMOTE_POOL_DIALS),
        Some(1)
    );
    assert_eq!(
        snap.counter(ct_obs::names::STORE_REMOTE_POOL_HITS),
        Some(169)
    );
}

/// A one-connection relay in front of `upstream` that forwards the
/// first `answers` responses and then goes away: it stopped listening
/// as soon as it took its connection, and it closes both sides after
/// the last forwarded response, as a server stopped mid-batch would.
fn relay_that_stops_after(upstream: SocketAddr, answers: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut client, _) = listener.accept().unwrap();
        drop(listener);
        let mut server = TcpStream::connect(upstream).unwrap();
        let (mut requests, mut to_server) =
            (client.try_clone().unwrap(), server.try_clone().unwrap());
        std::thread::spawn(move || std::io::copy(&mut requests, &mut to_server));
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        let mut forwarded = 0;
        while forwarded < answers {
            match parse_response(&buf).unwrap() {
                Some((_, used)) => {
                    client.write_all(&buf[..used]).unwrap();
                    buf.drain(..used);
                    forwarded += 1;
                }
                None => {
                    let n = server.read(&mut chunk).unwrap();
                    assert!(n > 0, "upstream closed early");
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
        client.shutdown(Shutdown::Both).ok();
        server.shutdown(Shutdown::Both).ok();
    });
    addr
}

#[test]
fn a_server_stopped_mid_batch_degrades_to_per_key_gets() {
    const REALIZATIONS: usize = 24;
    let config = CaseStudyConfig::builder()
        .realizations(REALIZATIONS)
        .build()
        .unwrap();
    let scratch = Scratch::new("stopped");
    let server = serve(&scratch.0);
    let filler_reg = Arc::new(ct_obs::Registry::new());
    let filler =
        RemoteStore::connect_with_registry(server.addr().to_string(), Arc::clone(&filler_reg));
    CaseStudy::build_with_store(&config, Some(&filler)).unwrap();
    let asked = filler_reg
        .snapshot()
        .counter(ct_obs::names::STORE_REMOTE_GETS)
        .unwrap();

    // The merge reads the sites record, then the realizations in one
    // batch; the relay answers the sites record and 10 of them.
    let answered = 10;
    let relay = relay_that_stops_after(server.addr(), 1 + answered);
    let reg = Arc::new(ct_obs::Registry::new());
    let remote = RemoteStore::connect_with_registry(relay.to_string(), Arc::clone(&reg));
    let merged = CaseStudy::merge_from_store(&config, &remote).unwrap();
    // The merge asked for every record the fill did, each once.
    let merge_gets = reg.snapshot().counter(ct_obs::names::STORE_REMOTE_GETS);
    assert_eq!(merge_gets, Some(asked));

    let clean = CaseStudy::build(&config).unwrap();
    assert_eq!(merged.realizations(), clean.realizations());
    assert_eq!(figures_csv(&merged), figures_csv(&clean));
    let snap = reg.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count(ct_obs::names::STORE_REMOTE_HITS), 1 + answered as u64);
    // Every key the batch left unanswered went through a lone get,
    // which failed after its retries, as did every later operation,
    // and each failure was absorbed as a recompute.
    let unanswered = (REALIZATIONS - answered) as u64;
    let failed = count(ct_obs::names::STORE_REMOTE_GETS) - count(ct_obs::names::STORE_REMOTE_HITS)
        + count(ct_obs::names::STORE_REMOTE_PUTS);
    assert!(
        failed >= 2 * unanswered,
        "the misses' gets and puts: {failed}"
    );
    assert_eq!(count(ct_obs::names::STORE_REMOTE_ERRORS), failed);
    assert_eq!(count(ct_obs::names::STORE_DEGRADED), failed);
    assert_eq!(count(ct_obs::names::STORE_RETRIES), 2 * failed);
}
