//! Tweet-text parsing: retweet chains, mentions, hashtags, and URLs.
//!
//! The paper identifies "retweets and their attributed parent and
//! possibly more distant ancestors by the message syntax". The syntax
//! handled here is the classic manual-retweet convention:
//!
//! ```text
//! RT @alice: RT @bob: original message #tag http://bit.ly/abc123
//! ```
//!
//! which encodes the ancestry chain `[alice, bob]` (nearest ancestor
//! first) and the root body `original message #tag …`.

/// The structured content of one tweet's text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedTweet {
    /// Retweet ancestry, nearest ancestor first (empty = original).
    pub chain: Vec<String>,
    /// The root message body (everything after the last `RT @x:`).
    pub body: String,
    /// `#hashtags` appearing in the body (without the `#`).
    pub hashtags: Vec<String>,
    /// URLs appearing in the body.
    pub urls: Vec<String>,
}

impl ParsedTweet {
    /// The handle this tweet was directly retweeted from, if any.
    pub fn direct_parent(&self) -> Option<&str> {
        self.chain.first().map(|s| s.as_str())
    }
}

/// Parses one tweet's text.
pub fn parse_tweet(text: &str) -> ParsedTweet {
    let mut chain = Vec::new();
    let mut rest = text.trim();
    // Peel `RT @handle:` prefixes.
    while let Some(after_rt) = rest.strip_prefix("RT @") {
        let Some(colon) = after_rt.find(':') else {
            // Truncated chain fragment ("RT @ali" cut at 140 chars):
            // the handle is unusable; stop and treat the remainder as
            // opaque body.
            break;
        };
        let handle = &after_rt[..colon];
        if handle.is_empty() || !handle.chars().all(valid_handle_char) {
            break;
        }
        chain.push(handle.to_string());
        rest = after_rt[colon + 1..].trim_start();
    }
    let body = rest.to_string();
    let mut hashtags = Vec::new();
    let mut urls = Vec::new();
    for word in body.split_whitespace() {
        if let Some(tag) = word.strip_prefix('#') {
            let tag: String = tag.chars().take_while(|c| c.is_alphanumeric()).collect();
            if !tag.is_empty() {
                hashtags.push(tag);
            }
        } else if word.starts_with("http://") || word.starts_with("https://") {
            let url: String = word
                .chars()
                .take_while(|&c| !c.is_whitespace() && c != ',' && c != ';')
                .collect();
            urls.push(url);
        }
    }
    ParsedTweet {
        chain,
        body,
        hashtags,
        urls,
    }
}

fn valid_handle_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn original_tweet() {
        let p = parse_tweet("just some words");
        assert_eq!(p.body, "just some words");
        assert!(p.hashtags.is_empty());
        assert!(p.urls.is_empty());
        assert_eq!(p.direct_parent(), None);
    }

    #[test]
    fn single_retweet() {
        let p = parse_tweet("RT @alice: hello world");
        assert_eq!(p.chain, vec!["alice"]);
        assert_eq!(p.body, "hello world");
        assert_eq!(p.direct_parent(), Some("alice"));
    }

    #[test]
    fn nested_retweet_chain() {
        let p = parse_tweet("RT @a1: RT @b_2: RT @c3: msg");
        assert_eq!(p.chain, vec!["a1", "b_2", "c3"]);
        assert_eq!(p.body, "msg");
    }

    #[test]
    fn hashtags_and_urls() {
        let p = parse_tweet("RT @x: check #ICDE and #rust2012 at http://bit.ly/ab12 now");
        assert_eq!(p.hashtags, vec!["ICDE", "rust2012"]);
        assert_eq!(p.urls, vec!["http://bit.ly/ab12"]);
    }

    #[test]
    fn hashtag_punctuation_is_trimmed() {
        let p = parse_tweet("loving #rust, really");
        assert_eq!(p.hashtags, vec!["rust"]);
        let empty = parse_tweet("just a # sign");
        assert!(empty.hashtags.is_empty());
    }

    #[test]
    fn truncated_chain_degrades_gracefully() {
        // 140-char truncation can cut mid-handle; the parser must not
        // invent a bogus ancestor.
        let p = parse_tweet("RT @alice: RT @bo");
        assert_eq!(p.chain, vec!["alice"]);
        assert_eq!(p.body, "RT @bo");
    }

    #[test]
    fn mention_mid_text_is_not_a_chain() {
        let p = parse_tweet("shout out to @bob: you rock");
        assert!(p.chain.is_empty());
        assert_eq!(p.body, "shout out to @bob: you rock");
    }

    #[test]
    fn https_urls_detected() {
        let p = parse_tweet("see https://example.org/x and http://bit.ly/y");
        assert_eq!(p.urls.len(), 2);
    }

    #[test]
    fn roundtrip_with_corpus_syntax() {
        use crate::corpus::Corpus;
        use flow_graph::NodeId;
        let text = format!(
            "RT @{}: RT @{}: m42 lorem ipsum",
            Corpus::handle(NodeId(5)),
            Corpus::handle(NodeId(9))
        );
        let p = parse_tweet(&text);
        assert_eq!(
            p.chain
                .iter()
                .map(|h| Corpus::user_of_handle(h).unwrap())
                .collect::<Vec<_>>(),
            vec![NodeId(5), NodeId(9)]
        );
        assert_eq!(p.body, "m42 lorem ipsum");
    }
}
