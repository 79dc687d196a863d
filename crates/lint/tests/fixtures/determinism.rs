//! Fixture: a seeded determinism violation (L10) at an exact line.
#![allow(dead_code)]

struct Point {
    x: f64,
    y: f64,
}

impl Persist for Point {
    fn persist(&self, enc: &mut Encoder) {
        let Point { x, y } = self;
        enc.put_f64(*x);
        enc.put_f64(*y);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let y = dec.take_f64()?;
        let x = dec.take_f64()?;
        Ok(Point { x, y })
    }
}

impl Persist for Tag {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_u8(self.0);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Tag(dec.take_u8()?))
    }
}
