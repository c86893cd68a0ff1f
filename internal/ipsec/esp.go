package ipsec

import (
	"encoding/binary"
	"fmt"
)

// ESP (RFC 4303) tunnel-mode encapsulation with AES-128-CBC, the VPN
// configuration the paper's IPsec workload models. No authentication
// trailer: the paper measures encryption cost only ("every packet is
// encrypted using AES-128 encryption").
//
// Layout produced by Seal:
//
//	SPI (4) | SeqNo (4) | IV (16) | ciphertext(payload | pad | padLen | nextHdr)

// ESPHdrLen is the cleartext ESP header length (SPI + sequence number).
const ESPHdrLen = 8

// Tunnel is one direction of an ESP security association.
type Tunnel struct {
	SPI    uint32
	cipher *Cipher
	seq    uint32
	ivCtr  uint64 // deterministic IV source; fine for a simulation workload
}

// NewTunnel creates an SA with the given SPI and 16-byte key.
func NewTunnel(spi uint32, key []byte) (*Tunnel, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Tunnel{SPI: spi, cipher: c}, nil
}

// SealedLen reports the on-wire ESP length for a payload of n bytes with
// next-header nh: header, IV, payload, padding to block boundary including
// the 2 trailer bytes.
func SealedLen(n int) int {
	body := n + 2 // + padLen + nextHdr
	pad := (BlockSize - body%BlockSize) % BlockSize
	return ESPHdrLen + BlockSize + body + pad
}

// Seal encrypts payload (an inner IP packet in tunnel mode) and returns
// the ESP packet body. nextHdr is the inner protocol (4 = IPv4-in-IPsec).
func (t *Tunnel) Seal(payload []byte, nextHdr byte) []byte {
	out := make([]byte, SealedLen(len(payload)))
	return out[:t.SealInto(out, payload, nextHdr)]
}

// SealInto is Seal into a caller's buffer: it writes the ESP packet body
// into dst, which must hold SealedLen(len(payload)) bytes and must not
// overlap payload, and returns the number of bytes written.
func (t *Tunnel) SealInto(dst, payload []byte, nextHdr byte) int {
	n := SealedLen(len(payload))
	out := dst[:n]
	t.seq++
	t.ivCtr++
	binary.BigEndian.PutUint32(out[0:4], t.SPI)
	binary.BigEndian.PutUint32(out[4:8], t.seq)
	iv := out[8 : 8+BlockSize]
	binary.BigEndian.PutUint64(iv[0:8], t.ivCtr)
	binary.BigEndian.PutUint64(iv[8:16], ^t.ivCtr)
	// Encrypt the IV counter block so the wire IV is unpredictable-ish.
	t.cipher.Encrypt(iv, iv)

	body := out[8+BlockSize:]
	copy(body, payload)
	padStart := len(payload)
	padEnd := len(body) - 2
	for i := padStart; i < padEnd; i++ {
		body[i] = byte(i - padStart + 1) // RFC 4303 monotonic pad
	}
	body[len(body)-2] = byte(padEnd - padStart)
	body[len(body)-1] = nextHdr
	if err := t.cipher.EncryptCBC(iv, body); err != nil {
		panic(err) // lengths are constructed correct above
	}
	return n
}

// Open decrypts an ESP packet body produced by Seal, returning the inner
// payload, the next-header byte, and the sequence number.
func (t *Tunnel) Open(esp []byte) (payload []byte, nextHdr byte, seq uint32, err error) {
	if len(esp) < ESPHdrLen+2*BlockSize {
		return nil, 0, 0, fmt.Errorf("ipsec: ESP packet too short (%d bytes)", len(esp))
	}
	if spi := binary.BigEndian.Uint32(esp[0:4]); spi != t.SPI {
		return nil, 0, 0, fmt.Errorf("ipsec: SPI mismatch: packet %#x, SA %#x", spi, t.SPI)
	}
	seq = binary.BigEndian.Uint32(esp[4:8])
	iv := esp[8 : 8+BlockSize]
	body := make([]byte, len(esp)-ESPHdrLen-BlockSize)
	copy(body, esp[8+BlockSize:])
	if len(body)%BlockSize != 0 {
		return nil, 0, 0, fmt.Errorf("ipsec: ciphertext length %d not block-aligned", len(body))
	}
	if err := t.cipher.DecryptCBC(iv, body); err != nil {
		return nil, 0, 0, err
	}
	padLen := int(body[len(body)-2])
	nextHdr = body[len(body)-1]
	if padLen > len(body)-2 {
		return nil, 0, 0, fmt.Errorf("ipsec: pad length %d exceeds body", padLen)
	}
	// Verify the RFC 4303 monotonic pad, the only integrity check CBC-only
	// ESP can offer.
	padStart := len(body) - 2 - padLen
	for i := 0; i < padLen; i++ {
		if body[padStart+i] != byte(i+1) {
			return nil, 0, 0, fmt.Errorf("ipsec: pad byte %d corrupt", i)
		}
	}
	return body[:padStart], nextHdr, seq, nil
}
