//! A blocking client for the service's line protocol. One request is in
//! flight per connection, as the protocol requires.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply missing this long counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The labels, among the replies the benchmark asks for, whose
/// `OK <label>=<n>` header announces `n` payload lines and an `END` line.
const FRAMED_LABELS: [&str; 4] = ["answers", "explain", "profile", "metrics"];

/// One complete reply.
pub struct Reply {
    /// The first line, without its newline.
    pub header: String,
    /// The payload lines exactly as received (each `\n`-terminated),
    /// without the header and the `END` line.
    pub body: String,
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        self.header == "OK" || self.header.starts_with("OK ")
    }

    /// The value of `key=` in the header, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.header
            .split_whitespace()
            .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
    }
}

/// Why a request produced no complete reply.
pub enum Lost {
    /// The connection failed or timed out before the reply was complete.
    Io(io::Error),
    /// The reply did not follow the framing rules.
    Frame(String),
}

impl std::fmt::Display for Lost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lost::Io(error) => write!(f, "no complete reply: {error}"),
            Lost::Frame(problem) => write!(f, "broken frame: {problem}"),
        }
    }
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads its whole reply, framed by the
    /// header's count.
    pub fn request(&mut self, line: &str) -> Result<Reply, Lost> {
        let mut wire = String::with_capacity(line.len() + 1);
        wire.push_str(line);
        wire.push('\n');
        self.writer.write_all(wire.as_bytes()).map_err(Lost::Io)?;
        let mut header = self.read_line()?;
        if !header.ends_with('\n') {
            return Err(Lost::Frame(format!("unterminated header {header:?}")));
        }
        header.pop();
        let count = header
            .strip_prefix("OK ")
            .and_then(|info| info.split_whitespace().next())
            .and_then(|token| token.split_once('='))
            .filter(|(label, _)| FRAMED_LABELS.contains(label))
            .map(|(_, n)| n.parse::<usize>())
            .transpose()
            .map_err(|_| Lost::Frame(format!("bad count in header {header:?}")))?;
        let mut body = String::new();
        if let Some(count) = count {
            for _ in 0..count {
                let line = self.read_line()?;
                if !line.ends_with('\n') {
                    return Err(Lost::Frame("reply ended inside its payload".into()));
                }
                body.push_str(&line);
            }
            if self.read_line()? != "END\n" {
                return Err(Lost::Frame(format!(
                    "payload of {header:?} not followed by END"
                )));
            }
        }
        Ok(Reply { header, body })
    }

    fn read_line(&mut self) -> Result<String, Lost> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err(Lost::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(_) => Ok(line),
            Err(error) => Err(Lost::Io(error)),
        }
    }
}
