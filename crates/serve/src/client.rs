//! A blocking client for the `rushd` wire protocol (JSON or binary).

use crate::binary::{self, Scan};
use crate::protocol::{
    Decision, JobSubmission, PlanRow, Request, Response, StatsReport, WireError,
};
use crate::ServeError;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Which codec the connection negotiated.
enum Codec {
    /// Newline-delimited JSON frames.
    Json,
    /// Length-prefixed binary frames; the buffer carries bytes read past
    /// the previous frame boundary.
    Binary { buf: Vec<u8> },
}

/// A connected client. One request/response in flight at a time.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    codec: Codec,
}

#[expect(
    clippy::disallowed_methods,
    reason = "blocking client by design: runs on the caller's thread, never on an event loop"
)]
impl Client {
    /// Connects to a daemon speaking the JSON protocol.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, codec: Codec::Json })
    }

    /// Connects to a daemon and negotiates the length-prefixed binary
    /// protocol (`RUSH1` magic + version handshake).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection cannot be established or the
    /// server closes during the handshake; [`ServeError::Wire`] when the
    /// server's hello is malformed or no common version exists.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        writer.write_all(&binary::hello(binary::BINARY_VERSION))?;
        writer.flush()?;
        let mut buf = Vec::new();
        let version = loop {
            match binary::scan_hello(&buf).map_err(ServeError::Wire)? {
                Scan::Done { item, consumed } => {
                    buf.drain(..consumed);
                    break item;
                }
                Scan::Incomplete => fill(&mut reader, &mut buf)?,
            }
        };
        if version == 0 {
            return Err(ServeError::Wire(WireError {
                code: crate::protocol::ErrorCode::BadVersion,
                message: "server offers no common binary protocol version".into(),
            }));
        }
        Ok(Client { reader, writer, codec: Codec::Binary { buf } })
    }

    /// Sets a read timeout on the underlying socket (`None` = block
    /// forever).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the socket rejects the option.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a broken connection, [`ServeError::Wire`] when
    /// the server's reply cannot be decoded.
    pub fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        match &mut self.codec {
            Codec::Json => {
                self.writer.write_all((req.encode() + "\n").as_bytes())?;
                self.writer.flush()?;
                let mut line = String::new();
                let n = self.reader.read_line(&mut line)?;
                if n == 0 {
                    return Err(eof());
                }
                Ok(Response::decode(line.trim_end())?)
            }
            Codec::Binary { .. } => {
                self.writer.write_all(&binary::frame_request(req))?;
                self.writer.flush()?;
                self.read_binary_response()
            }
        }
    }

    /// Reads one length-prefixed response frame.
    fn read_binary_response(&mut self) -> Result<Response, ServeError> {
        let Codec::Binary { buf } = &mut self.codec else {
            return Err(ServeError::Config("not a binary connection".into()));
        };
        loop {
            match binary::scan_frame(buf).map_err(ServeError::Wire)? {
                Scan::Done { item, consumed } => {
                    let resp = binary::decode_response(buf.get(item).unwrap_or(&[]))?;
                    buf.drain(..consumed);
                    return Ok(resp);
                }
                Scan::Incomplete => fill(&mut self.reader, buf)?,
            }
        }
    }

    /// Submits a job; returns `(decision, job id, epoch, waited_us)`.
    /// (The defer reason, when present, is available via [`Client::call`]
    /// on the raw [`Response::Submitted`].)
    ///
    /// # Errors
    ///
    /// Transport errors as in [`Client::call`]; a server-side error
    /// response surfaces as [`ServeError::Wire`].
    pub fn submit(
        &mut self,
        sub: JobSubmission,
    ) -> Result<(Decision, Option<u64>, u64, u64), ServeError> {
        match self.call(&Request::Submit(sub))? {
            Response::Submitted { job, decision, epoch, waited_us, .. } => {
                Ok((decision, job, epoch, waited_us))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Re-sizes the cluster to `capacity` containers (a revocation when
    /// shrinking, a restock when growing). Returns the capacity the daemon
    /// now serves, summed across planner shards.
    ///
    /// # Errors
    ///
    /// As in [`Client::submit`]; a capacity the daemon refuses (zero, or
    /// fewer containers than planner shards) surfaces as
    /// [`ServeError::Wire`] with [`crate::protocol::ErrorCode::BadField`].
    pub fn set_capacity(&mut self, capacity: u32) -> Result<u32, ServeError> {
        match self.call(&Request::SetCapacity { capacity })? {
            Response::CapacitySet { capacity } => Ok(capacity),
            other => Err(unexpected(&other)),
        }
    }

    /// Reports one completed-task runtime sample.
    ///
    /// # Errors
    ///
    /// As in [`Client::submit`].
    pub fn report_sample(&mut self, job: u64, runtime: u64) -> Result<(), ServeError> {
        match self.call(&Request::ReportSample { job, runtime })? {
            Response::Ack => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the plan table (all jobs when `job` is `None`).
    ///
    /// # Errors
    ///
    /// As in [`Client::submit`].
    pub fn query_plan(&mut self, job: Option<u64>) -> Result<Vec<PlanRow>, ServeError> {
        match self.call(&Request::QueryPlan { job })? {
            Response::PlanTable { rows, .. } => Ok(rows),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks for the Theorem-3 robust completion bound `T + R` of a job.
    ///
    /// # Errors
    ///
    /// As in [`Client::submit`].
    pub fn predict(&mut self, job: u64) -> Result<f64, ServeError> {
        match self.call(&Request::Predict { job })? {
            Response::Prediction { bound, .. } => Ok(bound),
            other => Err(unexpected(&other)),
        }
    }

    /// Cancels a job.
    ///
    /// # Errors
    ///
    /// As in [`Client::submit`].
    pub fn cancel(&mut self, job: u64) -> Result<(), ServeError> {
        match self.call(&Request::Cancel { job })? {
            Response::Ack => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the daemon counters.
    ///
    /// # Errors
    ///
    /// As in [`Client::submit`].
    pub fn stats(&mut self) -> Result<StatsReport, ServeError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Gracefully stops the daemon; returns whether a snapshot was
    /// written.
    ///
    /// # Errors
    ///
    /// As in [`Client::submit`].
    pub fn shutdown(&mut self, snapshot: bool) -> Result<bool, ServeError> {
        match self.call(&Request::Shutdown { snapshot })? {
            Response::ShuttingDown { snapshot_written } => Ok(snapshot_written),
            other => Err(unexpected(&other)),
        }
    }
}

/// Appends the reader's next chunk to `buf`; EOF is an error (we are
/// always mid-frame when this is called).
fn fill(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> Result<(), ServeError> {
    let chunk = reader.fill_buf()?;
    let n = chunk.len();
    if n == 0 {
        return Err(eof());
    }
    buf.extend_from_slice(chunk);
    reader.consume(n);
    Ok(())
}

fn eof() -> ServeError {
    ServeError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "server closed the connection",
    ))
}

/// The one place the client looks at every response kind: the typed
/// helpers above hand it whatever they did not ask for, so a new variant
/// must be classified here before the crate compiles under clippy.
#[deny(clippy::wildcard_enum_match_arm)]
fn unexpected(resp: &Response) -> ServeError {
    match resp {
        Response::Error(e) => ServeError::Wire(e.clone()),
        other @ (Response::Submitted { .. }
        | Response::Ack
        | Response::PlanTable { .. }
        | Response::Prediction { .. }
        | Response::Stats(_)
        | Response::CapacitySet { .. }
        | Response::ShuttingDown { .. }) => ServeError::Wire(WireError {
            code: crate::protocol::ErrorCode::BadOp,
            message: format!("unexpected response kind: {other:?}"),
        }),
    }
}
