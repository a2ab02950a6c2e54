//! `--store <url>`: how a CLI invocation names a store backend.
//!
//! Three forms are accepted, and anything else is rejected loudly
//! (a typo'd scheme must never be mistaken for a relative path):
//!
//! - `path/to/store` — a local store root (the historical form);
//! - `file://path/to/store` — the same, explicitly;
//! - `http://host:port` — the remote backend, served by `ct serve`.
//!
//! `Display` round-trips through `FromStr` (pinned by
//! `tests/cli_roundtrip.rs`), so a parsed URL can be re-rendered into
//! a child process's argv unchanged.

use crate::backend::StoreBackend;
use crate::error::StoreError;
use crate::remote::RemoteStore;
use crate::store::Store;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// A parsed `--store` argument: a local root or a server address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreUrl {
    /// A local store root (bare path or `file://` form).
    Local(PathBuf),
    /// A `ct serve` endpoint: the `host:port` of `http://host:port`.
    Http {
        /// The `host:port` to connect to.
        authority: String,
    },
}

impl StoreUrl {
    /// Opens the backend this URL names: the local [`Store`], which
    /// holds its root for as long as the backend lives, or the HTTP
    /// client.
    ///
    /// # Errors
    ///
    /// Local open failures ([`Store::open`]), including a root that
    /// another open store holds. Connecting is lazy — a down server
    /// surfaces on the first operation, which degrades to
    /// compute-without-cache like any other store failure.
    pub fn open(&self) -> Result<Arc<dyn StoreBackend>, StoreError> {
        Ok(match self {
            StoreUrl::Local(root) => Arc::new(Store::open(root)?),
            StoreUrl::Http { authority } => Arc::new(RemoteStore::connect(authority.clone())),
        })
    }

    /// The local root, when this URL names one.
    pub fn local_root(&self) -> Option<&std::path::Path> {
        match self {
            StoreUrl::Local(root) => Some(root),
            StoreUrl::Http { .. } => None,
        }
    }
}

/// Validates an `http://` authority: non-empty `host:port` with a
/// parseable port and no path component.
fn parse_authority(rest: &str) -> Result<String, String> {
    let authority = rest.strip_suffix('/').unwrap_or(rest);
    if authority.is_empty() {
        return Err("http store url needs a host:port (e.g. http://127.0.0.1:7171)".into());
    }
    if authority.contains('/') {
        return Err(format!(
            "http store url must be just http://host:port, got a path in '{authority}'"
        ));
    }
    let Some((host, port)) = authority.rsplit_once(':') else {
        return Err(format!(
            "http store url '{authority}' is missing its port (e.g. http://{authority}:7171)"
        ));
    };
    if host.is_empty() {
        return Err(format!("http store url '{authority}' is missing its host"));
    }
    if port.parse::<u16>().is_err() {
        return Err(format!(
            "http store url port '{port}' is not a valid port number"
        ));
    }
    Ok(authority.to_string())
}

impl std::str::FromStr for StoreUrl {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err("store url is empty".into());
        }
        if let Some(rest) = s.strip_prefix("http://") {
            return Ok(StoreUrl::Http {
                authority: parse_authority(rest)?,
            });
        }
        if let Some(rest) = s.strip_prefix("file://") {
            if rest.is_empty() {
                return Err("file:// store url names no path".into());
            }
            return Ok(StoreUrl::Local(PathBuf::from(rest)));
        }
        // Any other scheme is a loud error, not a weird relative path:
        // `https://host` silently creating a directory named
        // `https:/host` would be a debugging session, not a store.
        if let Some((scheme, _)) = s.split_once("://") {
            return Err(format!(
                "unsupported store url scheme '{scheme}://' \
                 (supported: a bare path, file://path, http://host:port)"
            ));
        }
        Ok(StoreUrl::Local(PathBuf::from(s)))
    }
}

impl fmt::Display for StoreUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreUrl::Local(root) => write!(f, "{}", root.display()),
            StoreUrl::Http { authority } => write!(f, "http://{authority}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_forms() {
        assert_eq!(
            "relative/dir".parse::<StoreUrl>().unwrap(),
            StoreUrl::Local(PathBuf::from("relative/dir"))
        );
        assert_eq!(
            "file:///abs/dir".parse::<StoreUrl>().unwrap(),
            StoreUrl::Local(PathBuf::from("/abs/dir"))
        );
        assert_eq!(
            "http://127.0.0.1:7171".parse::<StoreUrl>().unwrap(),
            StoreUrl::Http {
                authority: "127.0.0.1:7171".into()
            }
        );
        // A trailing slash on the authority is tolerated on input...
        assert_eq!(
            "http://[::1]:80/".parse::<StoreUrl>().unwrap(),
            StoreUrl::Http {
                authority: "[::1]:80".into()
            }
        );
    }

    #[test]
    fn rejects_unknown_schemes_and_malformed_authorities() {
        for (input, fragment) in [
            ("https://h:1", "unsupported store url scheme 'https://'"),
            ("ftp://h:1", "unsupported store url scheme 'ftp://'"),
            ("http://", "needs a host:port"),
            ("http://hostonly", "missing its port"),
            ("http://:7171", "missing its host"),
            ("http://h:notaport", "not a valid port number"),
            ("http://h:1/objects", "got a path"),
            ("", "store url is empty"),
            ("file://", "names no path"),
        ] {
            let err = input.parse::<StoreUrl>().unwrap_err();
            assert!(
                err.contains(fragment),
                "input '{input}': error '{err}' should mention '{fragment}'"
            );
        }
    }

    #[test]
    fn display_round_trips() {
        for input in ["some/dir", "/abs/dir", "http://127.0.0.1:7171", "file:///x"] {
            let url: StoreUrl = input.parse().unwrap();
            let reparsed: StoreUrl = url.to_string().parse().unwrap();
            assert_eq!(url, reparsed, "round-trip of '{input}'");
        }
    }
}
