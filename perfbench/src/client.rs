//! A minimal blocking keep-alive HTTP/1.1 client: one request in
//! flight per connection, responses framed by `content-length`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Client {
    stream: TcpStream,
    /// Zero-filled once; `filled` bytes of it hold received data.
    buf: Vec<u8>,
    filled: usize,
}

/// A parsed response; `body` borrows the client's buffer.
pub struct Response<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: vec![0; 1 << 16],
            filled: 0,
        })
    }

    /// Send pre-encoded request bytes and read the whole response.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Response<'_>> {
        self.stream.write_all(request)?;
        self.filled = 0;
        let (head_end, status, length) = loop {
            if let Some(head) = parse_head(&self.buf[..self.filled])? {
                break head;
            }
            self.fill()?;
        };
        while self.filled < head_end + length {
            self.fill()?;
        }
        if self.filled > head_end + length {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unrequested bytes",
            ));
        }
        Ok(Response {
            status,
            body: &self.buf[head_end..head_end + length],
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.filled..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        self.filled += n;
        Ok(())
    }
}

/// `(head length, status, content-length)` once the head is complete.
fn parse_head(buf: &[u8]) -> io::Result<Option<(usize, u16, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    Ok(Some((end + 4, status, length)))
}
