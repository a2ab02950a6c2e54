//! End-to-end contracts of the serving tier: a shard run and merge
//! through `http://` are bit-identical to the local store (with exact
//! `store.remote.*` counters), `/probe` answers state probabilities
//! from hosted artifacts and caches the built study, malformed
//! requests get 4xx without killing a worker, and a served root is
//! held: neither `fsck` nor a second server can open it underneath
//! the live one.

use compound_threats::figures::reproduce_all;
use compound_threats::prelude::*;
use compound_threats::report::figure_csv;
use compound_threats::serve::{ServeOptions, Server};
use ct_store::remote::{encode_request, ClientConn, MAX_BODY_BYTES};
use ct_store::FsckOptions;
use std::sync::Arc;
use std::time::Duration;

const REALIZATIONS: usize = 24;

fn config() -> CaseStudyConfig {
    CaseStudyConfig::builder()
        .realizations(REALIZATIONS)
        .build()
        .unwrap()
}

/// Unique scratch directory for one test, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "ct-remote-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&root).ok();
        Self(root)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A server on an OS-assigned loopback port over `root`.
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

fn figures_csv(study: &CaseStudy) -> String {
    reproduce_all(study)
        .unwrap()
        .iter()
        .map(figure_csv)
        .collect()
}

fn dial(server: &Server) -> ClientConn {
    ClientConn::dial(&server.addr().to_string(), Duration::from_secs(60)).unwrap()
}

/// One raw one-shot request against the server: `(status, body)`.
fn raw(server: &Server, method: &str, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut conn = dial(server);
    conn.send(&encode_request(method, target, body, false))
        .unwrap();
    let response = conn.answer().unwrap();
    assert!(
        !response.keep_alive,
        "a Connection: close request must be answered in close mode"
    );
    (response.status, response.body)
}

#[test]
fn serve_backed_shard_and_merge_match_local_bit_for_bit() {
    let scratch = Scratch::new("e2e");
    let config = config();
    let server = serve(&scratch.0);
    let shard = ShardSpec::new(0, 2).unwrap();
    let owned = (REALIZATIONS / 2) as u64;
    // Store operations per shard run: the owned realizations plus the
    // one sites record.
    let records = owned + 1;

    // Cold shard over the wire: every owned realization and the sites
    // record is a remote miss, computed, and written back — exactly once each.
    let cold_reg = Arc::new(ct_obs::Registry::new());
    let cold = RemoteStore::connect_with_registry(server.addr().to_string(), Arc::clone(&cold_reg));
    let report = run_shard(&config, &cold, shard).unwrap();
    assert_eq!(report.computed, report.total);
    assert_eq!(report.total, owned as usize);
    let snap = cold_reg.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count(ct_obs::names::STORE_REMOTE_GETS), records);
    assert_eq!(count(ct_obs::names::STORE_REMOTE_MISSES), records);
    assert_eq!(count(ct_obs::names::STORE_REMOTE_PUTS), records);
    assert_eq!(count(ct_obs::names::STORE_REMOTE_HITS), 0);
    assert_eq!(count(ct_obs::names::STORE_REMOTE_ERRORS), 0);
    assert_eq!(count(ct_obs::names::STORE_RETRIES), 0);

    // Warm rerun of the same shard: all hits, nothing recomputed,
    // nothing written — and the connection pool reuses kept-alive
    // sockets instead of dialing per operation.
    let keepalive_before = ct_obs::snapshot()
        .counter(ct_obs::names::SERVE_KEEPALIVE_REUSES)
        .unwrap_or(0);
    let warm_reg = Arc::new(ct_obs::Registry::new());
    let warm = RemoteStore::connect_with_registry(server.addr().to_string(), Arc::clone(&warm_reg));
    let report = run_shard(&config, &warm, shard).unwrap();
    assert_eq!(report.reused, report.total);
    let snap = warm_reg.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count(ct_obs::names::STORE_REMOTE_GETS), records);
    assert_eq!(count(ct_obs::names::STORE_REMOTE_HITS), records);
    assert_eq!(count(ct_obs::names::STORE_REMOTE_MISSES), 0);
    assert_eq!(count(ct_obs::names::STORE_REMOTE_PUTS), 0);
    let pool_hits = count(ct_obs::names::STORE_REMOTE_POOL_HITS);
    let pool_dials = count(ct_obs::names::STORE_REMOTE_POOL_DIALS);
    assert!(pool_hits > 0, "warm pass must reuse pooled connections");
    assert!(
        pool_hits + pool_dials >= records,
        "every operation checks a connection out: {pool_hits} hits + {pool_dials} dials < {records}"
    );
    assert!(
        pool_dials < records,
        "keep-alive must beat one-dial-per-op: {pool_dials} dials for {records} ops"
    );
    let keepalive_after = ct_obs::snapshot()
        .counter(ct_obs::names::SERVE_KEEPALIVE_REUSES)
        .unwrap_or(0);
    assert!(
        keepalive_after > keepalive_before,
        "the server must count kept-alive request reuses"
    );

    // Other shard, then a merge through the wire: bit-identical to a
    // storeless build, which the local-store tests pin in turn — so
    // local and remote backends agree byte for byte.
    let remote = RemoteStore::connect(server.addr().to_string());
    run_shard(&config, &remote, ShardSpec::new(1, 2).unwrap()).unwrap();
    let merged = CaseStudy::merge_from_store(&config, &remote).unwrap();
    let clean = CaseStudy::build(&config).unwrap();
    assert_eq!(merged.realizations(), clean.realizations());
    assert_eq!(figures_csv(&merged), figures_csv(&clean));
}

#[test]
fn probe_answers_from_hosted_artifacts_and_caches_the_study() {
    let scratch = Scratch::new("probe");
    let server = serve(&scratch.0);
    let target = "/probe?scenario=compound&site=waiau&realizations=12";

    let builds_before = ct_obs::snapshot()
        .counter(ct_obs::names::SERVE_PROBE_BUILDS)
        .unwrap_or(0);
    let (status, body) = raw(&server, "GET", target, &[]);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

    // The response is exactly the profile the framework computes for
    // the same configuration.
    let config = CaseStudyConfig::builder().realizations(12).build().unwrap();
    let study = CaseStudy::build(&config).unwrap();
    let mut want = String::from("architecture,green,orange,red,gray\n");
    for architecture in Architecture::ALL {
        let p = study
            .profile(
                architecture,
                ThreatScenario::HurricaneIntrusionIsolation,
                SiteChoice::Waiau,
            )
            .unwrap();
        want.push_str(&format!(
            "{},{},{},{},{}\n",
            architecture.label(),
            p.green(),
            p.orange(),
            p.red(),
            p.gray()
        ));
    }
    assert_eq!(String::from_utf8(body).unwrap(), want);

    // A second identical probe is answered from the cached study.
    let (status, again) = raw(&server, "GET", target, &[]);
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(again).unwrap(), want);
    let builds_after = ct_obs::snapshot()
        .counter(ct_obs::names::SERVE_PROBE_BUILDS)
        .unwrap_or(0);
    assert_eq!(
        builds_after - builds_before,
        1,
        "one study build serves both probes"
    );

    // Parameter validation is a 400 with an actionable message.
    let (status, body) = raw(&server, "GET", "/probe?site=waiau", &[]);
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("scenario"));
    let (status, _) = raw(&server, "GET", "/probe?scenario=florble&site=waiau", &[]);
    assert_eq!(status, 400);
}

#[test]
fn malformed_requests_get_4xx_and_never_kill_a_worker() {
    let scratch = Scratch::new("proto");
    let server = serve(&scratch.0);

    // Raw garbage instead of HTTP.
    let mut conn = dial(&server);
    conn.send(b"florble grumble\r\n\r\n").unwrap();
    let response = conn.answer().unwrap();
    assert_eq!(response.status, 400);
    assert!(!response.keep_alive, "framing is lost after garbage");

    // A truncated request (client hangs up mid-head).
    let mut conn = dial(&server);
    conn.send(b"GET /healthz HT").unwrap();
    drop(conn);

    // An oversized Content-Length is refused without reading the body.
    let mut conn = dial(&server);
    conn.send(
        format!(
            "PUT /objects/{} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            "00".repeat(16),
            MAX_BODY_BYTES + 1
        )
        .as_bytes(),
    )
    .unwrap();
    let response = conn.answer().unwrap();
    assert_eq!(response.status, 413);

    // Unknown paths and malformed object keys.
    let (status, _) = raw(&server, "GET", "/florble", &[]);
    assert_eq!(status, 404);
    let (status, _) = raw(&server, "GET", "/objects/not-hex", &[]);
    assert_eq!(status, 400);
    let (status, _) = raw(
        &server,
        "POST",
        &format!("/objects/{}", "00".repeat(16)),
        &[],
    );
    assert_eq!(status, 405);
    // A frame that fails validation is rejected before it is stored.
    let (status, _) = raw(
        &server,
        "PUT",
        &format!("/objects/{}", "00".repeat(16)),
        b"not a CTSTORE1 frame",
    );
    assert_eq!(status, 400);

    // After all of that abuse, every worker still answers.
    for _ in 0..8 {
        let (status, body) = raw(&server, "GET", "/healthz", &[]);
        assert_eq!(status, 200);
        assert_eq!(body, b"ok\n");
    }
    let (status, body) = raw(&server, "GET", "/metricsz", &[]);
    assert_eq!(status, 200);
    let metrics = String::from_utf8(body).unwrap();
    assert!(metrics.contains(ct_obs::names::SERVE_REQUESTS));
}

#[test]
fn serve_lock_blocks_destructive_fsck_and_second_servers() {
    let scratch = Scratch::new("lock");
    let config = CaseStudyConfig::builder().realizations(4).build().unwrap();
    {
        let store = Store::open(&scratch.0).unwrap();
        CaseStudy::build_with_store(&config, Some(&store)).unwrap();
    }

    let server = serve(&scratch.0);
    // A second server on the same root is refused loudly.
    let err = Server::bind(&scratch.0, &ServeOptions::default()).unwrap_err();
    assert!(err.to_string().contains("already held"), "got: {err}");
    // Opening a served root is refused outright, read-only fsck
    // included: opening truncates torn segment tails, which must
    // never happen under a live writer.
    let err = Store::open(&scratch.0).unwrap_err();
    assert!(err.to_string().contains("ct serve"), "got: {err}");

    // Stopping the server releases the root; a destructive fsck now
    // runs, and a new server can take the root back.
    drop(server);
    let store = Store::open(&scratch.0).unwrap();
    let repair = FsckOptions {
        repair: true,
        prune_max_age: None,
    };
    assert!(store.fsck(&repair).unwrap().clean());
    drop(store);
    let reopened = serve(&scratch.0);
    drop(reopened);
}
