//! The HTTP/1.1 client and response digests shared by the serve harnesses
//! (`loadgen`, `chaos_net`).

use qagview_common::json::{self, Json};
use qagview_common::wire::checksum64;
use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A minimal blocking keep-alive HTTP/1.1 client. Transport failures and
/// malformed responses are errors, not panics, so fault-tolerant callers
/// can reconnect and resend.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` with `TCP_NODELAY` and a read timeout.
    pub fn connect(addr: SocketAddr, read_timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request and read its response as `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, String)> {
        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            if self.reader.read_line(&mut h)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content length"))?;
            }
        }
        let mut buf = vec![0u8; content_length];
        self.reader.read_exact(&mut buf)?;
        let body = String::from_utf8(buf).map_err(|_| invalid("non-UTF-8 body"))?;
        Ok((status, body))
    }
}

/// The `digest` field of a command response body, if it has one.
pub fn digest_of(response_body: &str) -> Option<String> {
    json::parse(response_body)
        .ok()?
        .get("digest")
        .and_then(|d| d.as_str().map(str::to_string))
}

/// The checksum of a view with its `transition` panel dropped. A
/// transition describes the delta from the *previous* view, so a command
/// resent after a transport failure (absolute state, identical summary
/// and plot) legitimately reports a self-transition; retried steps are
/// checked against this stable digest instead of the full one.
pub fn stable_digest(view: &Json) -> String {
    let mut v = view.clone();
    if let Json::Obj(map) = &mut v {
        map.remove("transition");
    }
    format!("{:016x}", checksum64(v.to_text().as_bytes()))
}
