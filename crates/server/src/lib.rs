//! # tabular-server
//!
//! An HTTP/JSON query service for tabular algebra programs: clients
//! open sessions, upload CSV tables, and POST textual TA programs;
//! the service executes them against per-session databases with
//! snapshot-isolated reads ([`tabular_core::Database::snapshot`]) and
//! the resource governor as the admission-control layer — per-request
//! deadlines and cell budgets, [`tabular_algebra::Budget::split`]
//! across the concurrent statements of one request, and cooperative
//! cancellation when the client disconnects mid-run.
//!
//! The transport is a hand-rolled epoll reactor over `std::net` (the
//! offline vendor set has no async runtime; the epoll syscalls are
//! raw `extern "C"` declarations against the libc the binary already
//! links): one reactor thread multiplexes every connection, parses
//! HTTP/1.1 incrementally with pipelining, and spawns complete requests
//! onto the service's one [`Executor`](tabular_algebra::pool::Executor),
//! whose [`Config::workers`] threads also run every query's fan-out.
//! Connection count costs no thread, and a client hangup cancels its
//! in-flight run via `EPOLLRDHUP`. Internally a sans-I/O state machine
//! per connection (`conn`) decides what each connection does next and
//! the epoll driver (`reactor`) only performs the syscalls; see
//! [`service`] for the route table and wire protocol.

#![warn(missing_docs)]

mod conn;
pub mod http;
pub mod json;
mod reactor;
pub mod service;
pub mod session;

pub use conn::{MAX_BUF, MAX_PIPELINE};
pub use service::{Config, Response, Service};

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// A bound listener plus its shared service state.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
}

impl Server {
    /// Bind the configured address.
    pub fn bind(config: Config) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            service: Arc::new(Service::new(config)),
        })
    }

    /// The bound address (useful with `addr: "127.0.0.1:0"`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service state (counters, sessions).
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Serve forever on the calling thread: the epoll reactor loop.
    /// Returns only if the epoll instance itself fails.
    pub fn run(self) -> std::io::Result<()> {
        reactor::Reactor::new(self.listener, self.service)?.run()
    }

    /// Serve on a background thread; returns the bound address and the
    /// shared service state. The reactor thread runs for the life of
    /// the process (tests just let it die with the harness).
    pub fn spawn(self) -> std::io::Result<(SocketAddr, Arc<Service>)> {
        let addr = self.local_addr()?;
        let service = self.service();
        std::thread::spawn(move || {
            let _ = self.run();
        });
        Ok((addr, service))
    }
}
