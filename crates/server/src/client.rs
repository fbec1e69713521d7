//! Blocking client for the `SDLNET01` protocol, with an explicit
//! pipelined mode.
//!
//! The convenience methods (`out`, `inp`, `take`, …) are strict
//! request/response. The pipelined surface (`send` / `recv`) lets a
//! caller keep many requests in flight on one connection — the whole
//! point of the protocol — and correlate replies by request id.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sdl_tuple::{Pattern, Tuple, Value};

use sdl_durability::codec::{split_frame, Dec, FRAME_HEADER};

use crate::wire::{self, Request, Response, WireError, MAGIC};

fn wire_err(e: impl Into<WireError>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.into())
}

/// A connected SDL client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_req: u64,
    max_frame: usize,
    // Frames read while waiting for a specific req_id.
    held: HashMap<u64, Response>,
}

impl Client {
    /// Connects and performs the magic handshake.
    ///
    /// # Errors
    ///
    /// Connection failure or a handshake mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(MAGIC)?;
        let mut echo = [0u8; 8];
        stream.read_exact(&mut echo)?;
        if &echo != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server is not speaking SDLNET01",
            ));
        }
        Ok(Client {
            stream,
            next_req: 1,
            max_frame: wire::DEFAULT_MAX_FRAME,
            held: HashMap::new(),
        })
    }

    /// Sets a read timeout for subsequent `recv`/blocking calls.
    ///
    /// # Errors
    ///
    /// Propagates `set_read_timeout`.
    pub fn set_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    // -- pipelined surface ------------------------------------------------

    /// Sends a request without waiting; returns its id.
    ///
    /// # Errors
    ///
    /// Socket write failure.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        let req_id = self.next_req;
        self.next_req += 1;
        let framed = wire::frame(&wire::encode_request(req_id, req));
        self.stream.write_all(&framed)?;
        Ok(req_id)
    }

    /// Receives the next response frame (any request id).
    ///
    /// # Errors
    ///
    /// Socket read failure or a malformed frame.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        if let Some(&id) = self.held.keys().next() {
            let resp = self.held.remove(&id).expect("key just seen");
            return Ok((id, resp));
        }
        self.read_frame()
    }

    fn read_frame(&mut self) -> io::Result<(u64, Response)> {
        let mut framed = vec![0u8; FRAME_HEADER];
        self.stream.read_exact(&mut framed)?;
        // A partial frame's length is within the cap; read its payload.
        if split_frame(&framed, self.max_frame)
            .map_err(wire_err)?
            .is_none()
        {
            let len = Dec::new(&framed).u32().map_err(wire_err)? as usize;
            framed.resize(FRAME_HEADER + len, 0);
            self.stream.read_exact(&mut framed[FRAME_HEADER..])?;
        }
        match split_frame(&framed, self.max_frame).map_err(wire_err)? {
            Some(used) => wire::decode_response(&framed[FRAME_HEADER..used]).map_err(wire_err),
            None => Err(wire_err(WireError::Truncated)),
        }
    }

    /// Receives until `req_id` answers with a *final* response
    /// (`Parked` is recorded and skipped); other requests' responses
    /// are held for later `recv` calls.
    ///
    /// # Errors
    ///
    /// Socket read failure or a malformed frame.
    pub fn wait_for(&mut self, req_id: u64) -> io::Result<Response> {
        if let Some(resp) = self.held.remove(&req_id) {
            return Ok(resp);
        }
        loop {
            let (id, resp) = self.read_frame()?;
            if id == req_id {
                if matches!(resp, Response::Parked) {
                    continue;
                }
                return Ok(resp);
            }
            if !matches!(resp, Response::Parked) {
                self.held.insert(id, resp);
            }
        }
    }

    // -- blocking convenience ops ----------------------------------------

    /// `out`: asserts a tuple, waiting for the commit ack.
    ///
    /// # Errors
    ///
    /// I/O failure or a server-side [`Response::Error`].
    pub fn out(&mut self, t: Tuple) -> io::Result<()> {
        let id = self.send(&Request::Out(t))?;
        match self.wait_for(id)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// `in`: blocking take — parks server-side until a match commits.
    ///
    /// # Errors
    ///
    /// I/O failure, cancellation, or a server-side error.
    pub fn take(&mut self, p: Pattern) -> io::Result<Tuple> {
        let id = self.send(&Request::In(p))?;
        match self.wait_for(id)? {
            Response::Tuple(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    /// `rd`: blocking read.
    ///
    /// # Errors
    ///
    /// I/O failure, cancellation, or a server-side error.
    pub fn read(&mut self, p: Pattern) -> io::Result<Tuple> {
        let id = self.send(&Request::Rd(p))?;
        match self.wait_for(id)? {
            Response::Tuple(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    /// `inp`: non-blocking take.
    ///
    /// # Errors
    ///
    /// I/O failure or a server-side error.
    pub fn try_take(&mut self, p: Pattern) -> io::Result<Option<Tuple>> {
        let id = self.send(&Request::Inp(p))?;
        match self.wait_for(id)? {
            Response::Tuple(t) => Ok(Some(t)),
            Response::Failed => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// `rdp`: non-blocking read.
    ///
    /// # Errors
    ///
    /// I/O failure or a server-side error.
    pub fn try_read(&mut self, p: Pattern) -> io::Result<Option<Tuple>> {
        let id = self.send(&Request::Rdp(p))?;
        match self.wait_for(id)? {
            Response::Tuple(t) => Ok(Some(t)),
            Response::Failed => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Submits a full SDL transaction; `Ok(true)` committed, `Ok(false)`
    /// failed (immediate mode). Delayed transactions block until
    /// enabled.
    ///
    /// # Errors
    ///
    /// I/O failure or a server-side parse/compile/eval error.
    pub fn txn(&mut self, source: &str, env: Vec<(String, Value)>) -> io::Result<bool> {
        let id = self.send(&Request::Txn {
            source: source.to_owned(),
            env,
        })?;
        match self.wait_for(id)? {
            Response::Ok => Ok(true),
            Response::Failed => Ok(false),
            Response::Error(msg) => Err(io::Error::other(msg)),
            other => Err(unexpected(other)),
        }
    }

    /// Round-trip liveness probe.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn ping(&mut self) -> io::Result<()> {
        let id = self.send(&Request::Ping)?;
        match self.wait_for(id)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Cancels a parked request by id.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn cancel(&mut self, target: u64) -> io::Result<bool> {
        let id = self.send(&Request::Cancel(target))?;
        match self.wait_for(id)? {
            Response::Ok => Ok(true),
            Response::Failed => Ok(false),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> io::Error {
    match resp {
        Response::Error(msg) => io::Error::other(msg),
        Response::Cancelled => io::Error::new(io::ErrorKind::Interrupted, "request cancelled"),
        Response::NotLeader(addr) => io::Error::new(
            io::ErrorKind::PermissionDenied,
            format!("not the leader; write to {addr}"),
        ),
        other => io::Error::other(format!("unexpected response: {other:?}")),
    }
}
