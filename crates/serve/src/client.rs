//! The line client: one connection to a daemon, one line out, one line
//! back.
//!
//! Everything that talks to a daemon in lock-step — the closed-loop load
//! generator, `promote` / `dump-flight`, the drills, the integration
//! tests — goes through [`LineClient`], so `TCP_NODELAY`, the
//! one-write-per-line rule and what a closed connection means are
//! decided once. The open-loop driver uses it too, with a second handle
//! on the socket for its sender ([`LineClient::stream`]).

use std::fmt;
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};

use mec_workload::Request;

use crate::error::ServeError;
use crate::protocol::{
    encode_client, parse_server, ClientMsg, ControlAck, ControlAction, ServerMsg, SubmitRequest,
};

/// One connection speaking the line protocol.
#[derive(Debug)]
pub struct LineClient {
    peer: String,
    reader: BufReader<TcpStream>,
    // The outgoing line with its newline: one `write` per line, or
    // Nagle and delayed ACK cost a peer ~40 ms per round trip.
    out: String,
    // The incoming line. Survives a read timeout, so the next
    // `read_line` continues a line the peer is still writing.
    line: String,
}

impl LineClient {
    /// Connects to `addr` with `TCP_NODELAY` set.
    ///
    /// # Errors
    ///
    /// [`ServeError::Net`] naming `addr` when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs + fmt::Display) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(&addr).map_err(|source| ServeError::Net {
            action: "connect",
            addr: addr.to_string(),
            source,
        })?;
        let _ = stream.set_nodelay(true);
        Ok(LineClient {
            peer: addr.to_string(),
            reader: BufReader::new(stream),
            out: String::new(),
            line: String::new(),
        })
    }

    /// The socket underneath: timeouts, half-close, a cloned write
    /// handle, or bytes that are deliberately not a line.
    pub fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    /// Writes `line` and its newline in one `write`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the write fails.
    pub fn send_line(&mut self, line: &str) -> Result<(), ServeError> {
        self.out.clear();
        self.out.push_str(line);
        self.out.push('\n');
        self.reader.get_mut().write_all(self.out.as_bytes())?;
        Ok(())
    }

    /// Reads one line and returns it trimmed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`]: with kind `UnexpectedEof` when the peer closed
    /// the connection before (or in the middle of) the line; with a
    /// timeout kind when a read timeout set through [`LineClient::stream`]
    /// expired — what had arrived is kept and the next call carries on.
    pub fn read_line(&mut self) -> Result<&str, ServeError> {
        if self.line.ends_with('\n') {
            self.line.clear();
        }
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 || !self.line.ends_with('\n') {
            let text = format!("{} closed the connection", self.peer);
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, text).into());
        }
        Ok(self.line.trim())
    }

    /// Sends one message and parses the one reply.
    ///
    /// # Errors
    ///
    /// As [`LineClient::send_line`] and [`LineClient::read_line`];
    /// [`ServeError::Protocol`] when the reply does not parse.
    pub fn round_trip(&mut self, msg: &ClientMsg) -> Result<ServerMsg, ServeError> {
        self.send_line(&encode_client(msg))?;
        parse_server(self.read_line()?)
    }

    /// Submits `request` as a single frame.
    ///
    /// # Errors
    ///
    /// As [`LineClient::round_trip`].
    pub fn submit(&mut self, request: &Request) -> Result<ServerMsg, ServeError> {
        self.round_trip(&ClientMsg::Submit(SubmitRequest::from(request)))
    }

    /// Sends a control verb and returns its ack.
    ///
    /// # Errors
    ///
    /// As [`LineClient::round_trip`]; [`ServeError::Protocol`] naming the
    /// peer when it answers with an error line or anything but an ack.
    pub fn control(&mut self, action: ControlAction) -> Result<ControlAck, ServeError> {
        match self.round_trip(&ClientMsg::Control(action))? {
            ServerMsg::Ack(ack) => Ok(ack),
            ServerMsg::Error(text) => Err(ServeError::Protocol(format!(
                "{} refused the {} control: {text}",
                self.peer,
                action.as_str()
            ))),
            other => Err(ServeError::Protocol(format!(
                "unexpected reply to the {} control from {}: {other:?}",
                action.as_str(),
                self.peer
            ))),
        }
    }
}

/// One control on a connection of its own: connect, send, return the ack.
///
/// # Errors
///
/// As [`LineClient::connect`] and [`LineClient::control`].
pub fn control(
    addr: impl ToSocketAddrs + fmt::Display,
    action: ControlAction,
) -> Result<ControlAck, ServeError> {
    LineClient::connect(addr)?.control(action)
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Horizon, RequestId, VnfCatalog, VnfTypeId};
    use vnfrel::{ProblemInstance, Scheme};

    use super::*;
    use crate::daemon::ServeConfig;
    use crate::harness::spawn_sharded;

    fn tiny_instance() -> ProblemInstance {
        let mut b = NetworkBuilder::new();
        let ap = b.add_ap("ap0");
        b.add_cloudlet(ap, 16, Reliability::new(0.999).unwrap())
            .unwrap();
        ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(4)).unwrap()
    }

    #[test]
    fn round_trips_against_a_daemon() {
        let instance = tiny_instance();
        let request = Request::new(
            RequestId(0),
            VnfTypeId(0),
            Reliability::new(0.9).unwrap(),
            0,
            2,
            5.0,
            instance.horizon(),
        )
        .unwrap();
        let config = ServeConfig::new("127.0.0.1:0");
        let (addr, daemon) = spawn_sharded(instance, Scheme::OnSite, config).unwrap();

        let mut client = LineClient::connect(addr).unwrap();
        match client.submit(&request).unwrap() {
            ServerMsg::Decision(event) => assert_eq!(event.request, 0),
            other => panic!("request 0 answered with {other:?}"),
        }
        // A raw line that is no frame costs a reply, not the connection.
        client.send_line("{\"type\":\"nonsense\"}").unwrap();
        assert!(matches!(
            parse_server(client.read_line().unwrap()),
            Ok(ServerMsg::Error(_))
        ));
        assert_eq!(
            client.control(ControlAction::Stats).unwrap().stats.decided,
            1
        );
        let ack = control(addr, ControlAction::Shutdown).unwrap();
        assert_eq!(ack.action, ControlAction::Shutdown);
        assert_eq!(daemon.join().unwrap().unwrap().stats.decided, 1);
    }

    #[test]
    fn a_peer_that_closes_before_replying_is_a_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || drop(listener.accept().unwrap()));
        let mut client = LineClient::connect(addr).unwrap();
        peer.join().unwrap();
        match client.control(ControlAction::Stats) {
            Err(ServeError::Io(e)) => {
                // The write may still have landed in the socket buffer;
                // either way it is the hang-up, not a panic.
                assert!(
                    matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::BrokenPipe
                    ),
                    "{e}"
                );
            }
            other => panic!("expected an i/o error, got {other:?}"),
        }
    }

    #[test]
    fn an_error_line_to_a_control_names_the_address() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut request)
                .unwrap();
            let reply = crate::protocol::encode_server(&ServerMsg::Error("not today".into()));
            stream.write_all(format!("{reply}\n").as_bytes()).unwrap();
        });
        match control(addr, ControlAction::Promote) {
            Err(ServeError::Protocol(text)) => {
                assert!(text.contains(&addr.to_string()), "{text}");
                assert!(
                    text.contains("promote") && text.contains("not today"),
                    "{text}"
                );
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        peer.join().unwrap();
    }
}
