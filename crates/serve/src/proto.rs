//! The request/response protocol spoken over the socket.
//!
//! Transport framing (length prefix, magic, FNV checksum) is the
//! shared [`bisram_wire`] byte framing; this module defines what goes
//! *inside* the frames.
//!
//! * A **request** frame carries a job spec text
//!   (see [`JobSpec::parse`](crate::JobSpec::parse)), verbatim.
//! * A **response** is a stream of frames: one [`RespFrame::Section`]
//!   per artifact, streamed as they become available, terminated by a
//!   single [`RespFrame::Done`] (success) or [`RespFrame::Error`]
//!   (failure). The terminator's `sections` count lets the client
//!   detect a truncated stream even when every individual frame
//!   checksummed clean.
//!
//! Frame payloads are text with a single header line:
//!
//! ```text
//! section <name>\n<content...>
//! done sections=<n> dedup=<0|1>\n
//! error code=<u32> retryable=<0|1>\n<message...>
//! ```
//!
//! The connection stays open between requests, so one client can batch
//! many jobs over one socket.

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RespFrame {
    /// A named artifact section.
    Section {
        /// Artifact name (no whitespace).
        name: String,
        /// Artifact text.
        content: String,
    },
    /// Successful end of response.
    Done {
        /// How many `Section` frames preceded this terminator.
        sections: usize,
        /// Whether the server deduplicated this request onto another
        /// in-flight identical request.
        dedup: bool,
    },
    /// Failed end of response.
    Error {
        /// Status code (see [`JobFailure`](crate::JobFailure)).
        code: u32,
        /// Whether resending the request can succeed.
        retryable: bool,
        /// Human-readable message.
        message: String,
    },
}

impl RespFrame {
    /// Encodes the frame payload (transport framing is added by
    /// [`bisram_wire::write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            RespFrame::Section { name, content } => {
                format!("section {name}\n{content}").into_bytes()
            }
            RespFrame::Done { sections, dedup } => {
                format!("done sections={sections} dedup={}\n", u8::from(*dedup)).into_bytes()
            }
            RespFrame::Error {
                code,
                retryable,
                message,
            } => format!(
                "error code={code} retryable={}\n{message}",
                u8::from(*retryable)
            )
            .into_bytes(),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// A message describing why the payload is not a valid response
    /// frame (non-UTF-8, unknown tag, malformed header fields).
    pub fn decode(payload: &[u8]) -> Result<RespFrame, String> {
        let text =
            std::str::from_utf8(payload).map_err(|_| "response frame is not UTF-8".to_owned())?;
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| "response frame has no header line".to_owned())?;
        let mut fields = header.split(' ');
        let tag = fields.next().unwrap_or("");
        match tag {
            "section" => {
                let name = fields
                    .next()
                    .filter(|n| !n.is_empty())
                    .ok_or_else(|| "section frame missing a name".to_owned())?;
                Ok(RespFrame::Section {
                    name: name.to_owned(),
                    content: body.to_owned(),
                })
            }
            "done" => {
                let sections = field(header, "sections=")?
                    .parse::<usize>()
                    .map_err(|_| format!("bad done header {header:?}"))?;
                let dedup = parse_flag(header, "dedup=")?;
                Ok(RespFrame::Done { sections, dedup })
            }
            "error" => {
                let code = field(header, "code=")?
                    .parse::<u32>()
                    .map_err(|_| format!("bad error header {header:?}"))?;
                let retryable = parse_flag(header, "retryable=")?;
                Ok(RespFrame::Error {
                    code,
                    retryable,
                    message: body.to_owned(),
                })
            }
            other => Err(format!("unknown response tag {other:?}")),
        }
    }
}

fn field<'a>(header: &'a str, key: &str) -> Result<&'a str, String> {
    header
        .split(' ')
        .find_map(|f| f.strip_prefix(key))
        .ok_or_else(|| format!("header {header:?} missing {key}"))
}

fn parse_flag(header: &str, key: &str) -> Result<bool, String> {
    match field(header, key)? {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!(
            "header {header:?}: {key} must be 0|1, got {other:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for frame in [
            RespFrame::Section {
                name: "metrics.txt".to_owned(),
                content: "metric words: 64\nmetric area_mm2: 1.5\n".to_owned(),
            },
            RespFrame::Section {
                name: "empty.txt".to_owned(),
                content: String::new(),
            },
            RespFrame::Done {
                sections: 7,
                dedup: true,
            },
            RespFrame::Done {
                sections: 0,
                dedup: false,
            },
            RespFrame::Error {
                code: 503,
                retryable: true,
                message: "server is draining\nsecond line".to_owned(),
            },
        ] {
            let decoded = RespFrame::decode(&frame.encode()).expect("round trip");
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(RespFrame::decode(&[0xff, 0xfe]).is_err());
        assert!(RespFrame::decode(b"no newline").is_err());
        assert!(RespFrame::decode(b"bogus tag\n").is_err());
        assert!(RespFrame::decode(b"section\n").is_err());
        assert!(RespFrame::decode(b"done sections=x dedup=0\n").is_err());
        assert!(RespFrame::decode(b"done sections=1\n").is_err());
        assert!(RespFrame::decode(b"error code=400 retryable=2\nmsg").is_err());
    }

    #[test]
    fn section_content_is_byte_exact() {
        let content = "line1\n\nline3 with trailing space \n";
        let frame = RespFrame::Section {
            name: "a.txt".to_owned(),
            content: content.to_owned(),
        };
        let RespFrame::Section { content: back, .. } =
            RespFrame::decode(&frame.encode()).expect("round trip")
        else {
            panic!("wrong tag");
        };
        assert_eq!(back, content);
    }
}
