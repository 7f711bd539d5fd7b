// Fixture: naked new/delete ownership. Never compiled.
//
struct Buffer
{
    int *data = nullptr;
};

Buffer *
makeBuffer()
{
    Buffer *b = new Buffer;   // violation: naked new
    b->data = new int[16];    // violation: naked new
    return b;
}

void
freeBuffer(Buffer *b)
{
    delete[] b->data;         // violation: naked delete
    delete b;                 // violation: naked delete
}
