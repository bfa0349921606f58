//! Inter-cell shared-memory channel (ivshmem device model).
//!
//! Jailhouse's only inter-cell communication primitive is a shared
//! memory region with a doorbell interrupt. The model implements a
//! simple single-writer message mailbox in the shared page:
//!
//! ```text
//! +0  sequence number (incremented per message)
//! +4  payload length in words (≤ MAX_PAYLOAD_WORDS)
//! +8  payload words
//! ```
//!
//! Both ends access the mailbox through their [`GuestCtx`]'s stage-2
//! checked RAM accessors, so an ivshmem access from a cell that lost
//! the region (e.g. after shutdown) faults exactly like any other
//! isolation violation.

use crate::guest::GuestCtx;
use certify_board::memmap;

/// Maximum message payload, in 32-bit words.
pub const MAX_PAYLOAD_WORDS: usize = 16;

/// One end of the shared-memory mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvshmemChannel {
    base: u32,
    last_seen_seq: u32,
}

impl IvshmemChannel {
    /// A channel over the board's dedicated ivshmem region.
    pub fn new() -> IvshmemChannel {
        IvshmemChannel::at(memmap::IVSHMEM_BASE)
    }

    /// A channel over a custom shared region (tests).
    pub fn at(base: u32) -> IvshmemChannel {
        IvshmemChannel {
            base,
            last_seen_seq: 0,
        }
    }

    /// Posts a message, bumping the sequence number. Payloads longer
    /// than [`MAX_PAYLOAD_WORDS`] are truncated.
    pub fn post(&mut self, ctx: &mut GuestCtx<'_>, payload: &[u32]) {
        let len = payload.len().min(MAX_PAYLOAD_WORDS);
        for (i, word) in payload.iter().take(len).enumerate() {
            ctx.ram_write32(self.base + 8 + 4 * i as u32, *word);
        }
        ctx.ram_write32(self.base + 4, len as u32);
        let seq = ctx.ram_read32(self.base).wrapping_add(1);
        ctx.ram_write32(self.base, seq);
    }

    /// Polls for a message newer than the last one seen by this end.
    /// Returns the payload if one is available.
    pub fn poll(&mut self, ctx: &mut GuestCtx<'_>) -> Option<Vec<u32>> {
        let seq = ctx.ram_read32(self.base);
        if seq == self.last_seen_seq {
            return None;
        }
        self.last_seen_seq = seq;
        let len = (ctx.ram_read32(self.base + 4) as usize).min(MAX_PAYLOAD_WORDS);
        let mut payload = Vec::with_capacity(len);
        for i in 0..len {
            payload.push(ctx.ram_read32(self.base + 8 + 4 * i as u32));
        }
        Some(payload)
    }
}

impl Default for IvshmemChannel {
    fn default() -> Self {
        IvshmemChannel::new()
    }
}
