//! End-to-end test of the command-line tools: simulate → analyze →
//! replay, and the looking glass over an archive, exercising the real
//! binaries through their public interface.

use gill::query::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gill-cli-it-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn simulate_analyze_replay_pipeline() {
    let dir = tmpdir("pipeline");
    let updates = dir.join("updates.mrt");
    let ribs = dir.join("ribs.mrt");
    let filters = dir.join("filters.txt");
    let kept = dir.join("kept.mrt");

    // 1. simulate
    let out = Command::new(env!("CARGO_BIN_EXE_gill-simulate"))
        .args([
            "--ases",
            "150",
            "--coverage",
            "0.25",
            "--events",
            "40",
            "--seed",
            "5",
            "--out",
            updates.to_str().unwrap(),
            "--ribs",
            ribs.to_str().unwrap(),
        ])
        .output()
        .expect("gill-simulate runs");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(updates.exists() && ribs.exists());

    // 2. analyze
    let out = Command::new(env!("CARGO_BIN_EXE_gill-analyze"))
        .args([
            "--updates",
            updates.to_str().unwrap(),
            "--ribs",
            ribs.to_str().unwrap(),
            "--filters",
            filters.to_str().unwrap(),
        ])
        .output()
        .expect("gill-analyze runs");
    assert!(
        out.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("component #1"), "missing summary: {stdout}");
    let filter_text = std::fs::read_to_string(&filters).unwrap();
    assert!(
        filter_text.lines().any(|l| l.starts_with("drop ")),
        "no drop rules emitted"
    );

    // 3. replay
    let out = Command::new(env!("CARGO_BIN_EXE_gill-replay"))
        .args([
            "--updates",
            updates.to_str().unwrap(),
            "--filters",
            filters.to_str().unwrap(),
            "--out",
            kept.to_str().unwrap(),
        ])
        .output()
        .expect("gill-replay runs");
    assert!(
        out.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pass the filters"), "{stdout}");
    // the filtered archive is smaller than the input
    let in_size = std::fs::metadata(&updates).unwrap().len();
    let out_size = std::fs::metadata(&kept).unwrap().len();
    assert!(
        out_size < in_size,
        "filtering must shrink the archive ({out_size} vs {in_size})"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_gill-simulate"))
        .args(["--bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_gill-analyze"))
        .output()
        .unwrap();
    assert!(!out.status.success(), "missing required flag must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn collectord_runs_and_archives_nothing_without_peers() {
    let dir = tmpdir("collectord");
    let archive = dir.join("collected.mrt");
    let out = Command::new(env!("CARGO_BIN_EXE_gill-collectord"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--archive",
            archive.to_str().unwrap(),
            "--duration",
            "1",
        ])
        .output()
        .expect("gill-collectord runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("received 0"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A child process that is killed and reaped however the test ends.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One `GET` over a fresh connection; returns the status line and the
/// body with any chunked framing removed.
fn get(addr: &str, target: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).unwrap();
    let (head, mut body) = raw.split_once("\r\n\r\n").expect("a response head");
    let status = head.lines().next().unwrap().to_string();
    if !head.contains("Transfer-Encoding: chunked") {
        return (status, body.to_string());
    }
    let mut out = String::new();
    loop {
        let (size, rest) = body.split_once("\r\n").expect("a chunk size line");
        let size = usize::from_str_radix(size, 16).unwrap();
        if size == 0 {
            return (status, out);
        }
        out.push_str(&rest[..size]);
        body = rest[size..]
            .strip_prefix("\r\n")
            .expect("chunk ends in CRLF");
    }
}

fn field<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn queryd_serves_and_streams_an_addpath_archive() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/updates_v6.mrt");
    let ctx = gill::wire::DecodeCtx::from_families(gill::cli::parse_families("v6").unwrap());
    let day = gill::cli::read_updates_mrt_ctx(fixture.as_ref(), &ctx).unwrap();
    assert!(!day.is_empty());
    let mut child = Reaped(
        Command::new(env!("CARGO_BIN_EXE_gill-queryd"))
            .args([
                "--updates",
                fixture,
                "--addpath",
                "v6",
                "--addr",
                "127.0.0.1:0",
                "--stream-wait-subs",
                "1",
                "--stream-repeat",
                "2",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("gill-queryd starts"),
    );
    // the reader stays alive to the end: a closed pipe would fail the
    // daemon's later prints
    let mut stdout = BufReader::new(child.0.stdout.take().unwrap()).lines();
    let addr = loop {
        let line = stdout
            .next()
            .expect("gill-queryd exited before serving")
            .unwrap();
        if let Some(addr) = line.strip_prefix("serving on http://") {
            break addr.to_string();
        }
    };

    // the VP's table holds its v6 routes and nothing else
    let vp = day[0].vp.asn.value();
    let (status, body) = get(&addr, &format!("/rib?vp={vp}"));
    assert!(status.contains(" 200 "), "{status}");
    let rib = Json::parse(&body).unwrap();
    let Some(Json::Arr(routes)) = field(&rib, "routes") else {
        panic!("no routes in {body}");
    };
    assert!(!routes.is_empty(), "{body}");
    for r in routes {
        let Some(Json::Str(prefix)) = field(r, "prefix") else {
            panic!("route without a prefix: {r:?}");
        };
        assert!(prefix.contains(':'), "non-v6 route {prefix}");
    }

    // the one subscriber releases the replay: the day twice, every update
    // with its path id, in sequence, then end-of-stream
    let (status, body) = get(&addr, "/stream/updates");
    assert!(status.contains(" 200 "), "{status}");
    let frames: Vec<Json> = body.lines().map(|l| Json::parse(l).unwrap()).collect();
    let (last, updates) = frames.split_last().expect("frames");
    assert_eq!(field(last, "type"), Some(&Json::str("eos")), "{body}");
    assert_eq!(updates.len(), 2 * day.len(), "{body}");
    for (seq, f) in updates.iter().enumerate() {
        assert_eq!(field(f, "type"), Some(&Json::str("update")), "{f:?}");
        assert_eq!(field(f, "seq"), Some(&Json::U64(seq as u64)), "{f:?}");
        assert!(
            matches!(field(f, "path_id"), Some(Json::U64(_))),
            "path id lost: {f:?}"
        );
    }
    drop(stdout);
}
