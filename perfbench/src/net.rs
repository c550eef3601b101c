//! Client side of the daemon's wire protocol: handshake, buffered frame
//! output, and a frame splitter over raw socket reads (so one thread can
//! interleave timed reads with scheduled writes without ever splitting a
//! frame).

use richnote_server::codec::{codec_for, CodecKind, FrameCodec};
use richnote_server::wire::{read_frame, write_frame, Request, Response, MAX_FRAME_BYTES};
use richnote_server::PROTO_VERSION;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Length in bytes of the first complete frame in `buf`, or `None` when
/// more bytes are needed. Binary frames are `LEB128 len | tag | body`;
/// JSON frames are `u32 LE len | version byte | payload`.
///
/// # Errors
///
/// A length prefix above [`MAX_FRAME_BYTES`] or an overlong varint.
pub fn frame_len(buf: &[u8], kind: CodecKind) -> Result<Option<usize>, String> {
    let (body, header) = match kind {
        CodecKind::Json => {
            let Some(head) = buf.get(..4) else { return Ok(None) };
            (u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as u64, 5)
        }
        CodecKind::Binary => {
            let mut len = 0u64;
            let mut i = 0;
            loop {
                let Some(&b) = buf.get(i) else { return Ok(None) };
                if i >= 5 {
                    return Err("overlong frame length varint".into());
                }
                len |= u64::from(b & 0x7F) << (7 * i);
                i += 1;
                if b & 0x80 == 0 {
                    break;
                }
            }
            (len, i)
        }
    };
    if body > u64::from(MAX_FRAME_BYTES) {
        return Err(format!("frame length {body} exceeds the protocol limit"));
    }
    let total = header + body as usize;
    Ok((buf.len() >= total).then_some(total))
}

/// Opens a connection and runs the v2 handshake, offering `kind`.
/// Returns the stream and the negotiated codec.
///
/// # Errors
///
/// Connection failures, a non-`Hello` answer, or a codec other than the
/// one offered (the benchmark must measure the codec it names).
pub fn connect(addr: SocketAddr, kind: CodecKind, session: u64) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let hello =
        Request::Hello { proto: PROTO_VERSION, session, codec: Some(kind.wire_name().into()) };
    write_frame(&mut stream, &hello).map_err(|e| format!("hello: {e}"))?;
    match read_frame::<_, Response>(&mut stream).map_err(|e| format!("hello reply: {e}"))? {
        Some(Response::Hello { codec, .. }) if codec.as_deref() == Some(kind.wire_name()) => {
            Ok(stream)
        }
        other => Err(format!("handshake: expected Hello with codec {kind}, got {other:?}")),
    }
}

/// Buffered request output in the negotiated codec.
pub struct FrameOut {
    stream: TcpStream,
    codec: Box<dyn FrameCodec>,
    buf: Vec<u8>,
}

impl FrameOut {
    /// Writes to (a clone of) `stream` in codec `kind`.
    pub fn new(stream: TcpStream, kind: CodecKind) -> Self {
        FrameOut { stream, codec: codec_for(kind), buf: Vec::with_capacity(64 * 1024) }
    }

    /// Encodes `req` into the buffer; nothing is sent until [`flush`].
    ///
    /// [`flush`]: FrameOut::flush
    pub fn push(&mut self, req: &Request) -> Result<(), String> {
        self.codec.write_request(&mut self.buf, req).map_err(|e| format!("encode: {e}"))
    }

    /// Buffers an already encoded frame.
    pub fn push_bytes(&mut self, frame: &[u8]) {
        self.buf.extend_from_slice(frame);
    }

    /// Bytes buffered and not yet sent.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Sends everything buffered.
    pub fn flush(&mut self) -> Result<(), String> {
        if !self.buf.is_empty() {
            self.stream.write_all(&self.buf).map_err(|e| format!("send: {e}"))?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// Response input: raw reads into a buffer, decoded a whole frame at a
/// time in the negotiated codec.
pub struct FrameIn {
    stream: TcpStream,
    codec: Box<dyn FrameCodec>,
    kind: CodecKind,
    buf: Vec<u8>,
    start: usize,
}

impl FrameIn {
    /// Reads from (a clone of) `stream` in codec `kind`.
    pub fn new(stream: TcpStream, kind: CodecKind) -> Self {
        FrameIn {
            stream,
            codec: codec_for(kind),
            kind,
            buf: Vec::with_capacity(64 * 1024),
            start: 0,
        }
    }

    /// The next frame already buffered, decoded.
    fn buffered(&mut self) -> Result<Option<Response>, String> {
        let pending = &self.buf[self.start..];
        let Some(len) = frame_len(pending, self.kind)? else { return Ok(None) };
        let mut frame = &pending[..len];
        let resp = self
            .codec
            .read_response(&mut frame)
            .map_err(|e| format!("decode: {e}"))?
            .ok_or("decode: empty frame")?;
        self.start += len;
        Ok(Some(resp))
    }

    /// Reads once, waiting at most `wait` (`None` = until data). Returns
    /// whether any bytes arrived.
    fn fill(&mut self, wait: Option<Duration>) -> Result<bool, String> {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        // A socket read timeout sleeps in scheduler ticks (4 ms at 250
        // Hz), which would make open-loop sends late; ppoll sleeps on a
        // high-resolution timer instead.
        if let Some(wait) = wait {
            if !readable(&self.stream, wait)? {
                return Ok(false);
            }
        }
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// The next response, blocking until one arrives.
    pub fn recv(&mut self) -> Result<Response, String> {
        loop {
            if let Some(r) = self.buffered()? {
                return Ok(r);
            }
            self.fill(None)?;
        }
    }

    /// The next response if one arrives before `deadline`.
    pub fn recv_until(&mut self, deadline: Instant) -> Result<Option<Response>, String> {
        loop {
            if let Some(r) = self.buffered()? {
                return Ok(Some(r));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.fill(Some(deadline - now))?;
        }
    }
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` from `<time.h>` (64-bit Linux).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits up to `wait` for `stream` to have bytes (or EOF) to read.
fn readable(stream: &TcpStream, wait: Duration) -> Result<bool, String> {
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts = Timespec { tv_sec: wait.as_secs() as i64, tv_nsec: i64::from(wait.subsec_nanos()) };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // whole call; nfds = 1 matches the single pollfd; a null sigmask
    // leaves the signal mask unchanged. The descriptor is owned by
    // `stream`, which outlives the call.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(format!("ppoll: {e}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use richnote_server::wire::Response;

    #[test]
    fn frame_len_finds_whole_frames_in_both_codecs() {
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let mut codec = codec_for(kind);
            let mut bytes = Vec::new();
            codec.write_response(&mut bytes, &Response::PubAck { seq: 300 }).unwrap();
            let one = bytes.len();
            codec.write_response(&mut bytes, &Response::Subscribed).unwrap();
            assert_eq!(frame_len(&bytes, kind), Ok(Some(one)), "{kind}");
            for cut in 0..one {
                assert_eq!(frame_len(&bytes[..cut], kind), Ok(None), "{kind} cut at {cut}");
            }
        }
        assert!(frame_len(&[0xFF; 8], CodecKind::Binary).is_err());
        assert!(frame_len(&u32::MAX.to_le_bytes(), CodecKind::Json).is_err());
    }
}
