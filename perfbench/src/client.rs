//! A minimal HTTP/1.1 client over one keep-alive connection whose write
//! and read halves can live on different threads, so an open-loop
//! generator can send on schedule while responses are read elsewhere.

use least_bn::serve::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Encode one request.
pub fn encode(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// The write half.
#[derive(Debug)]
pub struct Sender(TcpStream);

impl Sender {
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.0.write_all(request)
    }
}

/// The read half.
#[derive(Debug)]
pub struct Receiver(BufReader<TcpStream>);

impl Receiver {
    /// Read one response: `(status, body)`.
    pub fn recv(&mut self) -> std::io::Result<(u16, Vec<u8>)> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut line = String::new();
        if self.0.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.0.read_line(&mut line)? == 0 {
                return Err(bad("eof in headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0; length];
        self.0.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// Both halves of one connection.
#[derive(Debug)]
pub struct Conn {
    pub tx: Sender,
    pub rx: Receiver,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let read = stream.try_clone()?;
        Ok(Self {
            tx: Sender(stream),
            rx: Receiver(BufReader::new(read)),
        })
    }

    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        self.tx.send(&encode(method, path, body))?;
        self.rx.recv()
    }

    /// A request whose 200 response is JSON.
    pub fn json(&mut self, method: &str, path: &str, body: &[u8]) -> Result<JsonValue, String> {
        let (status, body) = self
            .request(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        let text = String::from_utf8_lossy(&body);
        if !(200..300).contains(&status) {
            return Err(format!("{method} {path}: status {status}: {text}"));
        }
        least_bn::serve::json::parse(&text).map_err(|e| format!("{method} {path}: {e}"))
    }
}
