//! The benchmark's own HTTP/1.1 client: one keep-alive connection with
//! `TCP_NODELAY`, each request written with a single `write_all`, each
//! response framed by its `Content-Length`.
//!
//! The client is separate from the repository's `HttpClient` so that a change
//! to the server's client code cannot change how load is offered.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Encode one keep-alive request.
pub fn encode_request(method: &str, path: &str, host: &SocketAddr, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Frame the first complete response in `buf`: `Ok(Some((response,
/// consumed)))` once head and body are all present, `Ok(None)` while bytes
/// are missing, `Err` on a malformed head.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .filter(|_| status_line.starts_with("HTTP/1."))
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("bad header line {line:?}"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length {value:?}"))?,
            );
        } else if name.trim().eq_ignore_ascii_case("transfer-encoding") {
            return Err("chunked responses are not expected".into());
        }
    }
    let length = length.ok_or("response without content-length")?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some((
        Response {
            status,
            body: buf[body_start..body_start + length].to_vec(),
        },
        body_start + length,
    )))
}

/// A persistent connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connect with `TCP_NODELAY` and a 10 s read timeout.
    pub fn connect(addr: &SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Send one encoded request and read its response.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Response> {
        self.stream.write_all(request)?;
        self.read_response()
    }

    /// Read the next response, keeping any surplus bytes for the next call.
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match parse_response(&self.buf) {
                Ok(Some((response, used))) => {
                    self.buf.drain(..used);
                    return Ok(response);
                }
                Ok(None) => {}
                Err(e) => return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn a_response_split_at_any_byte_frames_only_when_complete() {
        let bytes = response(200, "{\"output\":[1.5,-2.25]}");
        for split in 0..bytes.len() {
            assert_eq!(
                parse_response(&bytes[..split]).unwrap(),
                None,
                "split {split}"
            );
        }
        let (r, used) = parse_response(&bytes).unwrap().unwrap();
        assert_eq!((r.status, used), (200, bytes.len()));
        assert_eq!(r.body, b"{\"output\":[1.5,-2.25]}");
    }

    #[test]
    fn pipelined_responses_frame_one_at_a_time() {
        let mut bytes = response(200, "first");
        bytes.extend(response(429, ""));
        bytes.extend(response(200, "third"));
        let mut rest = &bytes[..];
        let mut got = Vec::new();
        while let Some((r, used)) = parse_response(rest).unwrap() {
            got.push((r.status, String::from_utf8(r.body).unwrap()));
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
        assert_eq!(
            got,
            vec![
                (200, "first".to_string()),
                (429, String::new()),
                (200, "third".to_string())
            ]
        );
    }

    #[test]
    fn the_client_reassembles_split_and_pipelined_responses_from_a_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let first = response(200, "alpha");
        let second = response(200, "beta");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            // The first response in three writes, then both the rest of the
            // stream's responses pipelined in one write.
            for part in [&first[..5], &first[5..20], &first[20..]] {
                s.write_all(part).unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
            let mut both = second.clone();
            both.extend(response(201, "gamma"));
            s.write_all(&both).unwrap();
        });
        let mut client = Client::connect(&addr).unwrap();
        let r = client.read_response().unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, &b"alpha"[..]));
        let r = client.read_response().unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, &b"beta"[..]));
        let r = client.read_response().unwrap();
        assert_eq!((r.status, r.body.as_slice()), (201, &b"gamma"[..]));
        server.join().unwrap();
    }

    #[test]
    fn malformed_heads_are_errors() {
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
    }

    #[test]
    fn requests_carry_their_body_length() {
        let addr: SocketAddr = "127.0.0.1:80".parse().unwrap();
        let req = encode_request("POST", "/v1/models/m/infer", &addr, b"{}");
        let text = String::from_utf8(req).unwrap();
        assert!(text.starts_with("POST /v1/models/m/infer HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
