//! Workspace-local substitute for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel::{bounded, Sender, Receiver}` on top of
//! `std::sync::mpsc::sync_channel`. Disconnect semantics match what the
//! workspace relies on: dropping the receiver makes `send` fail, dropping
//! the sender makes `recv` fail.

/// Bounded channels with crossbeam's error-enum shape.
pub mod channel {
    use std::sync::mpsc;

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline elapsed with no message.
        Timeout,
        /// All senders disconnected with the channel empty.
        Disconnected,
    }

    /// Sending half of a bounded channel (one producer: not `Clone`).
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Sender<T> {
        /// Blocks until the message is buffered or the receiver disconnects.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value).map_err(|e| SendError(e.0))
        }
    }

    /// Receiving half of a bounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Blocks up to `timeout` for a message; distinguishes an elapsed
        /// deadline from a disconnected channel.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }
    }

    /// Creates a channel buffering at most `cap` in-flight messages
    /// (`cap == 0` gives a rendezvous channel).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn bounded_send_recv_in_order() {
        let (tx, rx) = channel::bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_errors_after_sender_drop() {
        let (tx, rx) = channel::bounded::<i32>(1);
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_errors_after_receiver_drop() {
        let (tx, rx) = channel::bounded(1);
        drop(rx);
        assert!(tx.send(5).is_err());
    }

    #[test]
    fn recv_timeout_distinguishes_timeout_from_disconnect() {
        use std::time::Duration;
        let (tx, rx) = channel::bounded::<i32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }
}
