//! The service under test, in process: `Server` + `JobRunner` +
//! `JobService::mount`, exactly as the `job_server` binary wires them,
//! minus artifact persistence.

use crate::client::Conn;
use crate::workload::{JOB_WORKERS, QUERY_CONNS};
use least_bn::jobs::{JobQueue, JobRunner, JobService, QueueConfig, RunnerConfig};
use least_bn::serve::{ModelArtifact, ModelRegistry, Server, ServerConfig, ShutdownHandle};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// HTTP connections the benchmark holds besides the query connections:
/// one for job submission and polling, one for probes. Every connection
/// needs its own handler thread, since a handler owns a keep-alive
/// connection until it closes.
const CONTROL_CONNS: usize = 2;

#[derive(Debug)]
pub struct Service {
    pub addr: SocketAddr,
    pub registry: Arc<ModelRegistry>,
    pub queue: Arc<JobQueue>,
    shutdown: ShutdownHandle,
    server: JoinHandle<std::io::Result<()>>,
    runner: JoinHandle<()>,
    /// Bind to first healthy `GET /healthz`.
    pub boot: Duration,
}

impl Service {
    /// Boot on a fresh journal in `dir` with `preload` registered.
    pub fn boot(dir: &Path, preload: &[(String, ModelArtifact)]) -> Service {
        let start = Instant::now();
        let journal = dir.join("jobs.journal");
        if journal.exists() {
            std::fs::remove_file(&journal).expect("remove old journal");
        }
        let queue =
            Arc::new(JobQueue::open(&journal, QueueConfig::default()).expect("open journal"));
        let registry = Arc::new(ModelRegistry::new());
        for (id, artifact) in preload {
            registry
                .insert(id, artifact.clone())
                .expect("preload model");
        }
        let config = ServerConfig {
            workers: QUERY_CONNS + CONTROL_CONNS,
            ..ServerConfig::default()
        };
        let mut server =
            Server::bind("127.0.0.1:0", Arc::clone(&registry), config).expect("bind server");
        JobService::new(Arc::clone(&queue)).mount(server.router_mut());
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let server = std::thread::spawn(move || server.serve());
        let runner = JobRunner::new(
            Arc::clone(&queue),
            Arc::clone(&registry),
            RunnerConfig {
                workers: JOB_WORKERS,
                artifact_dir: None,
            },
        );
        let runner = std::thread::spawn(move || runner.run());
        let mut conn = Conn::connect(addr).expect("connect to service");
        let (status, _) = conn.request("GET", "/healthz", b"").expect("GET /healthz");
        assert_eq!(status, 200, "service is not healthy");
        Service {
            addr,
            registry,
            queue,
            shutdown,
            server,
            runner,
            boot: start.elapsed(),
        }
    }

    /// Stop HTTP, let the workers finish, join both. Every client
    /// connection must be closed first.
    pub fn stop(self) {
        self.shutdown.shutdown();
        self.server
            .join()
            .expect("server thread panicked")
            .expect("server failed");
        self.queue.stop_workers();
        self.runner.join().expect("job runner panicked");
    }
}
