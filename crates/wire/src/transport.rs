//! Pluggable byte transports for the framed protocol.
//!
//! The framing layer ([`crate::FramedStream`]) only needs `Read + Write`,
//! but a *deployment* needs three more capabilities that `TcpStream`
//! provides implicitly and that an in-process simulated network must be able
//! to provide explicitly:
//!
//! * unblocking a connection from another thread (server shutdown),
//! * per-operation I/O timeouts (so a lost frame degrades instead of
//!   hanging the application), and
//! * accepting and establishing connections by address.
//!
//! [`Transport`], [`Listener`], and [`Connector`] capture those three.
//! `TcpStream`/`TcpListener`/[`TcpConnector`] implement them for the real
//! network; [`crate::sim::SimConn`]/[`crate::sim::SimListener`]/
//! [`crate::sim::SimNet`] implement them for the deterministic chaos
//! network used by the fault-injection tests. `TxcachedServer` and
//! `RemoteCluster` are generic over these traits, so the full
//! client/server/invalidation path runs unchanged over either.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

/// A handle that can close (and thereby unblock) a connection or listener
/// from another thread. Calling it more than once is harmless.
pub struct Closer(Box<dyn Fn() + Send + Sync>);

impl Closer {
    /// Wraps a close action.
    #[must_use]
    pub fn new(f: impl Fn() + Send + Sync + 'static) -> Closer {
        Closer(Box::new(f))
    }

    /// Closes the associated connection or listener.
    pub fn close(&self) {
        (self.0)();
    }
}

impl std::fmt::Debug for Closer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Closer")
    }
}

/// A bidirectional byte stream a [`crate::FramedStream`] can run over.
pub trait Transport: Read + Write + Send + std::fmt::Debug + 'static {
    /// Returns a handle that closes this connection from another thread,
    /// unblocking any read currently parked on it.
    fn closer(&self) -> std::io::Result<Closer>;

    /// Sets the read *and* write timeout for subsequent operations.
    /// `None` blocks forever. A timed-out read surfaces as
    /// [`std::io::ErrorKind::WouldBlock`] or
    /// [`std::io::ErrorKind::TimedOut`].
    fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

/// An accept loop's source of incoming [`Transport`] connections.
pub trait Listener: Send + 'static {
    /// The connection type this listener produces.
    type Conn: Transport;

    /// Blocks until the next connection arrives. After [`Listener::closer`]
    /// fires, returns an error promptly instead of blocking forever.
    fn accept(&self) -> std::io::Result<Self::Conn>;

    /// A human-readable label of the listening address.
    fn local_label(&self) -> String;

    /// Returns a handle that unblocks a pending [`Listener::accept`] from
    /// another thread.
    fn closer(&self) -> std::io::Result<Closer>;
}

/// A client-side factory of [`Transport`] connections, keyed by address
/// string (the same strings placed on the consistent-hash ring).
pub trait Connector: Send + Sync + std::fmt::Debug + 'static {
    /// The connection type this connector produces.
    type Conn: Transport;

    /// Establishes a connection to `addr`, observing `connect_timeout`.
    fn connect(&self, addr: &str, connect_timeout: Duration) -> std::io::Result<Self::Conn>;
}

// ----------------------------------------------------------------------
// Real-network implementations.
// ----------------------------------------------------------------------

impl Transport for TcpStream {
    fn closer(&self) -> std::io::Result<Closer> {
        let clone = self.try_clone()?;
        Ok(Closer::new(move || {
            let _ = clone.shutdown(Shutdown::Both);
        }))
    }

    fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)?;
        self.set_write_timeout(timeout)
    }
}

impl Listener for TcpListener {
    type Conn = TcpStream;

    fn accept(&self) -> std::io::Result<TcpStream> {
        let (stream, _) = TcpListener::accept(self)?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    fn local_label(&self) -> String {
        self.local_addr()
            .map_or_else(|_| "unknown".to_string(), |a| a.to_string())
    }

    fn closer(&self) -> std::io::Result<Closer> {
        // A TCP accept cannot be cancelled portably; connecting a throwaway
        // client unblocks it, and the accept loop then observes its
        // shutdown flag.
        let addr = self.local_addr()?;
        Ok(Closer::new(move || {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }))
    }
}

/// The real-network [`Connector`]: resolves the address and dials each
/// candidate with the connect timeout, enabling `TCP_NODELAY`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpConnector;

impl Connector for TcpConnector {
    type Conn = TcpStream;

    fn connect(&self, addr: &str, connect_timeout: Duration) -> std::io::Result<TcpStream> {
        let addrs: Vec<std::net::SocketAddr> =
            std::net::ToSocketAddrs::to_socket_addrs(addr)?.collect();
        let mut last_err = std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            "no addresses resolved",
        );
        for candidate in addrs {
            match TcpStream::connect_timeout(&candidate, connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }
}
