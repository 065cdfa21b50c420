//! Leader/follower end-to-end: a follower dialing a live `--tcp`
//! leader mirrors every commit bit-for-bit, keeps up within a bounded
//! epoch gap, and survives a leader crash + recovery + restart through
//! its reconnect backoff — all over real sockets.

use lockfree_pagerank::durable::{Durability, DurabilityOptions};
use lockfree_pagerank::graph::generators::grid_road;
use lockfree_pagerank::graph::io::wal::FsyncPolicy;
use lockfree_pagerank::graph::selfloops::add_self_loops;
use lockfree_pagerank::graph::GraphBuilder;
use lockfree_pagerank::replica::{Follower, FollowerOptions};
use lockfree_pagerank::server::{spawn, spawn_durable, TcpServer};
use lockfree_pagerank::{Algorithm, GraphSource, PagerankOptions, ServeConfig, UpdateSession};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lfpr-replication-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn opts() -> PagerankOptions {
    PagerankOptions::default().with_threads(1)
}

fn session() -> UpdateSession {
    let mut g = GraphBuilder::new(8)
        .edges([
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 0),
            (4, 5),
            (5, 0),
            (5, 6),
            (6, 7),
            (7, 0),
        ])
        .build_dyn()
        .unwrap();
    add_self_loops(&mut g);
    let mut s = UpdateSession::new(g, Algorithm::DfLF, opts());
    s.enable_delta_tracking();
    s
}

struct Client {
    conn: TcpStream,
    input: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let conn = TcpStream::connect(addr).unwrap();
        let input = BufReader::new(conn.try_clone().unwrap());
        Client { conn, input }
    }

    fn roundtrip(&mut self, cmd: &str) -> String {
        writeln!(self.conn, "{cmd}").unwrap();
        let mut line = String::new();
        self.input.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }
}

/// Wait (bounded) until the follower's applied epoch reaches `want`.
fn await_epoch(follower: &Follower, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.epoch() < want {
        assert!(
            Instant::now() < deadline,
            "follower stuck at epoch {} waiting for {want}",
            follower.epoch()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The leader's published ranks and the follower's must be the same
/// bits at the same epoch.
fn assert_mirrored(server: &TcpServer, follower: &Follower, epoch: u64) {
    let mut c = Client::connect(server.addr());
    let stats = c.roundtrip("stats");
    assert!(stats.contains(&format!("epoch={epoch}")), "leader: {stats}");
    let (reader, _algo, _reorder) = follower.reader().expect("follower synced");
    let view = reader.view();
    assert_eq!(view.epoch(), epoch, "follower epoch");
    // Bit-equality spot-check over the wire: every vertex's rank as the
    // leader serves it must equal the follower's local copy.
    for v in 0..view.ranks().len() {
        let reply = c.roundtrip(&format!("rank {v}"));
        let rank: f64 = reply
            .split_whitespace()
            .nth(2)
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| panic!("bad rank reply: {reply}"));
        let mine = view.ranks()[v];
        // The wire rounds to 6 sig figs; compare at that precision.
        assert_eq!(
            format!("{mine:.6e}"),
            format!("{rank:.6e}"),
            "vertex {v} diverged"
        );
    }
    c.roundtrip("quit");
}

fn durable_leader(dir: &std::path::Path, addr: Option<SocketAddr>) -> TcpServer {
    let listener = match addr {
        Some(a) => TcpListener::bind(a).expect("rebind leader addr"),
        None => TcpListener::bind("127.0.0.1:0").unwrap(),
    };
    let mut s = session();
    let durable = if dir.join("wal.log").exists() {
        let (restored, durable, report) =
            Durability::recover(dir, opts(), DurabilityOptions::default()).expect("leader recover");
        s = restored;
        eprintln!("# test leader: {report}");
        durable
    } else {
        Durability::create(
            dir,
            &mut s,
            DurabilityOptions {
                fsync: FsyncPolicy::Never,
                checkpoint_every: 0,
                crash_after: None,
            },
        )
        .expect("leader durability")
    };
    // One worker is pinned by the follower's feed stream and another by
    // the test's own long-lived client: four keeps a spare for the
    // throwaway connections `assert_mirrored` makes.
    spawn_durable(s, listener, 4, Some(durable), None).expect("spawn leader")
}

#[test]
fn follower_mirrors_commits_and_views_live() {
    let dir = tmpdir("live");
    let server = durable_leader(&dir, None);
    let follower = Follower::spawn(FollowerOptions::new(server.addr().to_string()));

    let mut w = Client::connect(server.addr());
    assert_eq!(w.roundtrip("insert 3 1"), "staged 1");
    assert!(w.roundtrip("batch").starts_with("ok batch=1"));
    assert!(w
        .roundtrip("view add seeds 0:5e-1 3:5e-1")
        .starts_with("ok view seeds"));
    assert_eq!(w.roundtrip("insert 0 3"), "staged 1");
    assert!(w.roundtrip("batch").starts_with("ok batch=1"));
    await_epoch(&follower, 2);
    assert_mirrored(&server, &follower, 2);

    // The named view is mirrored too (recomputed follower-side from
    // the same teleport at the same graph — identical bits at 1
    // thread), and its personalized ranks answer locally.
    let (reader, _, _) = follower.reader().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while reader.view().ranks_in("seeds").is_none() {
        assert!(Instant::now() < deadline, "view never reached follower");
        std::thread::sleep(Duration::from_millis(20));
    }
    let view_ranks = w.roundtrip("rank 3 seeds");
    let local = reader.view().ranks_in("seeds").unwrap()[3];
    assert!(
        view_ranks.contains(&format!("{local:.6e}")),
        "view rank diverged: leader said {view_ranks}, follower has {local:e}"
    );

    // Dropping the view propagates.
    assert_eq!(w.roundtrip("view drop seeds"), "ok dropped view seeds");
    let deadline = Instant::now() + Duration::from_secs(5);
    while reader.view().ranks_in("seeds").is_some() {
        assert!(
            Instant::now() < deadline,
            "view drop never reached follower"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    w.roundtrip("quit");
    let stats = follower.stop().expect("follower clean stop");
    assert!(stats.deltas_applied >= 2, "{stats:?}");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn follower_survives_leader_restart_with_recovery() {
    let dir = tmpdir("restart");
    let server = durable_leader(&dir, None);
    let addr = server.addr();
    let mut fopts = FollowerOptions::new(addr.to_string());
    // Tight backoff so the test doesn't wait out the default cap.
    fopts.backoff_base = Duration::from_millis(20);
    fopts.backoff_cap = Duration::from_millis(200);
    let follower = Follower::spawn(fopts);

    let mut w = Client::connect(addr);
    assert_eq!(w.roundtrip("insert 3 1"), "staged 1");
    assert!(w.roundtrip("batch").starts_with("ok batch=1"));
    w.roundtrip("quit");
    await_epoch(&follower, 1);
    assert_mirrored(&server, &follower, 1);

    // Leader goes down gracefully (WAL flushed)…
    server.stop();
    // …and comes back on the same address from its log.
    let server = durable_leader(&dir, Some(addr));
    let mut w = Client::connect(addr);
    let stats = w.roundtrip("stats");
    assert!(stats.contains("epoch=1"), "recovered leader: {stats}");
    assert_eq!(w.roundtrip("insert 0 3"), "staged 1");
    assert!(w.roundtrip("batch").starts_with("ok batch=1"));
    w.roundtrip("quit");

    // The follower reconnects through its backoff and keeps tracking.
    await_epoch(&follower, 2);
    assert_mirrored(&server, &follower, 2);
    assert!(follower.reconnects() >= 1, "no reconnect counted");
    let stats = follower.stop().expect("follower clean stop");
    assert!(stats.reconnects >= 1, "{stats:?}");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn late_follower_bootstraps_from_resync() {
    // A follower that dials in *after* history exists gets the full
    // state transfer, then live frames.
    let dir = tmpdir("late");
    let server = durable_leader(&dir, None);
    let mut w = Client::connect(server.addr());
    for edge in ["3 1", "0 3", "1 5"] {
        assert_eq!(w.roundtrip(&format!("insert {edge}")), "staged 1");
        assert!(w.roundtrip("batch").starts_with("ok batch=1"));
    }
    let follower = Follower::spawn(FollowerOptions::new(server.addr().to_string()));
    await_epoch(&follower, 3);
    assert_mirrored(&server, &follower, 3);
    // And live tracking still works post-resync.
    assert_eq!(w.roundtrip("insert 2 4"), "staged 1");
    assert!(w.roundtrip("batch").starts_with("ok batch=1"));
    await_epoch(&follower, 4);
    assert_mirrored(&server, &follower, 4);
    w.roundtrip("quit");
    follower.stop().expect("clean stop");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn default_follower_runs_the_default_leaders_kernel_bit_for_bit() {
    // A leader built the way `lfpr serve` builds one by default, and a
    // follower with default options: after a run of live delta frames
    // both must hold the same rank bits, which needs the same τ, τf and
    // schedule on both sides. A sparse road grid keeps each commit's
    // frontier local, so a follower at another τf sweeps a different
    // vertex set and lands on different bits.
    const N: u32 = 4000;
    let mut g = grid_road(N as usize, 7);
    add_self_loops(&mut g);
    let cfg = ServeConfig::new(GraphSource::Recovered);
    let mut session = UpdateSession::new(g, cfg.algo, cfg.pagerank_options());
    session.enable_delta_tracking();
    let leader = session.reader();
    let server = spawn(session, TcpListener::bind("127.0.0.1:0").unwrap(), 4).unwrap();
    let follower = Follower::spawn(FollowerOptions::new(server.addr().to_string()));
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.reader().is_none() {
        assert!(Instant::now() < deadline, "follower never synced");
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut w = Client::connect(server.addr());
    const COMMITS: u64 = 12;
    let mut v = 0u32;
    for _ in 0..COMMITS {
        let snap = leader.view().snapshot().clone();
        for _ in 0..3 {
            let u = v % N;
            let mut t = (v * 37 + 11) % N;
            while t == u || snap.has_edge(u, t) {
                t = (t + 1) % N;
            }
            assert_eq!(
                w.roundtrip(&format!("insert {u} {t}")).split(' ').next(),
                Some("staged")
            );
            v += 331;
        }
        assert!(w.roundtrip("batch").starts_with("ok batch=3"));
    }
    w.roundtrip("quit");
    await_epoch(&follower, COMMITS);
    let (reader, _algo, _reorder) = follower.reader().expect("follower synced");
    let (mine, theirs) = (reader.view(), leader.view());
    assert_eq!((mine.epoch(), theirs.epoch()), (COMMITS, COMMITS));
    for (x, (a, b)) in mine.ranks().iter().zip(theirs.ranks()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "vertex {x}: follower {a:e} vs leader {b:e}"
        );
    }
    let stats = follower.stop().expect("follower clean stop");
    assert!(stats.deltas_applied >= COMMITS, "{stats:?}");
    assert_eq!(stats.resyncs, 1, "{stats:?}");
    server.stop();
}
