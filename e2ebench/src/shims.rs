//! Block-device shims placed above and below the buffer cache.
//!
//! A [`Traced`] wraps any [`BlockDev`] and records a span around every call
//! into it, counting calls and blocks. Below the cache it can also tap the
//! request headers the device will see, for the detector replay.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use insider_detect::IoMode;
use insider_fs::{BlockDev, Result};
use insider_nand::SimTime;
use ssd_insider::FsBridge;

use crate::device::Capture;
use crate::trace::SharedTracer;

/// Header tap: where to record, and how to read the device clock.
type Tap<D> = (Rc<RefCell<Capture>>, fn(&D) -> SimTime);

/// A [`BlockDev`] that records a span named `name` around each call.
pub struct Traced<D: BlockDev> {
    inner: D,
    tracer: SharedTracer,
    name: &'static str,
    tap: Option<Tap<D>>,
    /// Calls made through the shim.
    pub calls: u64,
    /// Blocks moved through the shim.
    pub blocks: u64,
}

impl<D: BlockDev> Traced<D> {
    /// Wraps `inner`.
    pub fn new(inner: D, tracer: SharedTracer, name: &'static str) -> Self {
        Traced {
            inner,
            tracer,
            name,
            tap: None,
            calls: 0,
            blocks: 0,
        }
    }

    /// The wrapped device, mutably.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwraps the device.
    pub fn into_inner(self) -> D {
        self.inner
    }

    fn call<T>(&mut self, blocks: u64, f: impl FnOnce(&mut D) -> T) -> T {
        self.calls += 1;
        self.blocks += blocks;
        self.tracer.borrow_mut().enter(self.name);
        let out = f(&mut self.inner);
        self.tracer.borrow_mut().exit();
        out
    }

    fn tap(&self, index: u64, mode: IoMode, count: u64, data: Option<&[Bytes]>) {
        if let Some((capture, clock)) = &self.tap {
            capture
                .borrow_mut()
                .push(clock(&self.inner), index, mode, count as u32, data);
        }
    }
}

impl Traced<FsBridge> {
    /// Also records every request header into `capture`.
    pub fn with_tap(mut self, capture: Rc<RefCell<Capture>>) -> Self {
        self.tap = Some((capture, FsBridge::now));
        self
    }
}

impl<D: BlockDev> BlockDev for Traced<D> {
    fn read_block(&mut self, index: u64) -> Result<Option<Bytes>> {
        self.tap(index, IoMode::Read, 1, None);
        self.call(1, |d| d.read_block(index))
    }

    fn write_block(&mut self, index: u64, data: Bytes) -> Result<()> {
        self.tap(index, IoMode::Write, 1, Some(std::slice::from_ref(&data)));
        self.call(1, |d| d.write_block(index, data))
    }

    fn trim_block(&mut self, index: u64) -> Result<()> {
        self.tap(index, IoMode::Trim, 1, None);
        self.call(1, |d| d.trim_block(index))
    }

    fn read_blocks(&mut self, index: u64, count: u64) -> Result<Vec<Option<Bytes>>> {
        self.tap(index, IoMode::Read, count, None);
        self.call(count, |d| d.read_blocks(index, count))
    }

    fn write_blocks(&mut self, index: u64, data: &[Bytes]) -> Result<()> {
        self.tap(index, IoMode::Write, data.len() as u64, Some(data));
        self.call(data.len() as u64, |d| d.write_blocks(index, data))
    }

    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
}
